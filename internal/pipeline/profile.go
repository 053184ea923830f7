package pipeline

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/floorplan"
	"repro/internal/mathx"
	"repro/internal/tech"
	"repro/internal/workload"
)

// Profile is the measured performance character of one application phase:
// every term of Eq. 5 plus the controller inputs (activity factors). It is
// what the paper obtains by profiling a phase for ~20 us with performance
// counters (§4.3.3) — here, by running the trace simulator.
type Profile struct {
	AppName    string
	Class      workload.Class
	PhaseIndex int
	Weight     float64
	// CPIComp per issue-queue configuration: computation cycles per
	// instruction including L1 misses that hit in L2, excluding L2-miss
	// stalls (the paper's CPIcomp_1.00 and CPIcomp_0.75).
	CPICompFull  float64
	CPICompSmall float64
	// Mr is L2 misses per instruction; MpNomCycles the measured
	// non-overlapped miss penalty in cycles at nominal frequency. The
	// observed penalty scales with frequency: mp(f) = MpNomCycles * fRel.
	Mr          float64
	MpNomCycles float64
	// Activity is alpha_f per subsystem (accesses/cycle), the controller's
	// sensed input.
	Activity [floorplan.NumSubsystems]float64
	// MispredictsPerInstr converts the FU-replication extra pipeline stage
	// into a CPI adder.
	MispredictsPerInstr float64
}

// CPITotalNom returns the total CPI at nominal frequency for a queue
// configuration (computation plus non-overlapped L2-miss stalls) — the CPI
// that converts per-cycle activity factors into per-instruction activity.
func (p Profile) CPITotalNom(q tech.QueueSize) float64 {
	return p.CPIComp(q) + p.Mr*p.MpNomCycles
}

// CPIComp returns the computation CPI for a queue configuration.
func (p Profile) CPIComp(q tech.QueueSize) float64 {
	if q == tech.QueueThreeQuarter {
		return p.CPICompSmall
	}
	return p.CPICompFull
}

// DefaultTraceLen is the per-phase profiling trace length.
const DefaultTraceLen = 60000

// BuildProfile measures one phase of one application by simulating the
// same synthetic trace through three machine configurations: full queues,
// class-side queue at 3/4, and full queues with L2 misses squashed (to
// isolate CPIcomp). The decomposition assumes the smaller queue never
// runs the trace faster and squashing never runs it slower
// (FuzzSimulateMonotone checks both on arbitrary traces); a phase whose
// own trace breaks either is an error that names the app and phase.
func BuildProfile(app workload.App, ph workload.Phase, nInstr int, seed int64) (Profile, error) {
	if nInstr <= 0 {
		nInstr = DefaultTraceLen
	}
	rng := mathx.NewRNG(seed)
	trace := GenerateTrace(ph.Mix, nInstr, rng)

	full := DefaultConfig()
	small := full
	if app.Class == workload.FP {
		small.FPQEntries = int(float64(full.FPQEntries) * tech.QueueSmallFrac)
	} else {
		small.IntQEntries = int(float64(full.IntQEntries) * tech.QueueSmallFrac)
	}
	squash := full
	squash.SquashL2Misses = true

	rFull, err := Simulate(trace, full)
	if err != nil {
		return Profile{}, fmt.Errorf("pipeline: full-queue run: %w", err)
	}
	rSmall, err := Simulate(trace, small)
	if err != nil {
		return Profile{}, fmt.Errorf("pipeline: small-queue run: %w", err)
	}
	rComp, err := Simulate(trace, squash)
	if err != nil {
		return Profile{}, fmt.Errorf("pipeline: squashed run: %w", err)
	}

	if rComp.Cycles > rFull.Cycles {
		return Profile{}, fmt.Errorf("pipeline: %s phase %d: squashing L2 misses ran slower (%d > %d cycles)",
			app.Name, ph.Index, rComp.Cycles, rFull.Cycles)
	}
	if rSmall.Cycles < rFull.Cycles {
		return Profile{}, fmt.Errorf("pipeline: %s phase %d: the 3/4 queue ran faster (%d < %d cycles)",
			app.Name, ph.Index, rSmall.Cycles, rFull.Cycles)
	}

	mr := rFull.L2MissesPerInstr
	mpNom := 0.0
	if mr > 0 {
		mpNom = (rFull.CPI - rComp.CPI) / mr
	}
	cpiFull := rComp.CPI
	cpiSmall := rSmall.CPI - mr*mpNom
	if cpiSmall < cpiFull {
		// Only rounding gets here: mr*mpNom need not equal rFull.CPI -
		// rComp.CPI exactly, so a queue that costs no cycles can land an
		// ulp below (TestBuildProfileSmallQueueRounding).
		cpiSmall = cpiFull
	}

	p := Profile{
		AppName:             app.Name,
		Class:               app.Class,
		PhaseIndex:          ph.Index,
		Weight:              ph.Weight,
		CPICompFull:         cpiFull,
		CPICompSmall:        cpiSmall,
		Mr:                  mr,
		MpNomCycles:         mpNom,
		MispredictsPerInstr: rFull.MispredictsPerInstr,
	}
	for i := range p.Activity {
		p.Activity[i] = clampActivity(rFull.Activity[i])
	}
	return p, nil
}

// PerfInputs collects the terms of Eq. 5.
type PerfInputs struct {
	FRel           float64         // relative core frequency
	CPIComp        float64         // computation CPI for the chosen queue size
	Mr             float64         // L2 misses per instruction
	MpNomCycles    float64         // non-overlapped miss penalty at nominal f
	PE             float64         // timing errors per instruction
	RecoveryCycles float64         // rp
	ExtraCPI       float64         // e.g. FU-replication pipeline-lengthening adder
	Checker        *checker.Config // nil = no checker bandwidth cap
}

// Perf evaluates Eq. 5: performance in (relative) instructions per second.
//
//	Perf(f) = f / (CPIcomp + mr*mp(f) + PE(f)*rp)
//
// with mp scaling linearly in f (a fixed memory latency in nanoseconds
// costs more cycles at higher frequency) and an optional checker
// retirement-bandwidth cap.
func Perf(in PerfInputs) float64 {
	if in.FRel <= 0 {
		return 0
	}
	cpi := in.CPIComp + in.ExtraCPI + in.Mr*in.MpNomCycles*in.FRel + in.PE*in.RecoveryCycles
	if cpi <= 0 {
		return 0
	}
	if in.Checker != nil {
		cpi += in.Checker.StallCPI(in.FRel, cpi)
	}
	return in.FRel / cpi
}
