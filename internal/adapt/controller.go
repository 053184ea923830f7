package adapt

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/tech"
	"repro/internal/thermal"
	"repro/internal/vats"
	"repro/internal/workload"
)

// OperatingPoint is a complete configuration chosen by the controller: the
// 2n+3 outputs of §4.1.
type OperatingPoint struct {
	FCore float64   // relative core frequency
	VddV  []float64 // per subsystem
	VbbV  []float64 // per subsystem
	Queue tech.QueueSize
	FU    tech.FUChoice
}

// Clone deep-copies the operating point.
func (op OperatingPoint) Clone() OperatingPoint {
	out := op
	out.VddV = append([]float64(nil), op.VddV...)
	out.VbbV = append([]float64(nil), op.VbbV...)
	return out
}

// IdleAlphaThreshold is the activity (accesses/cycle) below which a
// subsystem is treated as idle for adaptation purposes.
const IdleAlphaThreshold = 0.01

// minLevel returns the smallest of an ascending level list.
func minLevel(levels []float64) float64 { return levels[0] }

// Solver abstracts the per-subsystem Freq and Power algorithms (the boxes
// of Figure 3): Exhaustive search or trained fuzzy controllers.
type Solver interface {
	// FreqMax returns the subsystem's maximum feasible frequency.
	FreqMax(c *Core, i int, q FreqQuery) float64
	// PowerLevels returns the minimum-power (Vdd, Vbb) meeting fCore.
	PowerLevels(c *Core, i int, fCore float64, q FreqQuery) (vddV, vbbV float64)
}

// Exhaustive is the reference solver of §4.3.1.
type Exhaustive struct{}

// FreqMax implements Solver.
func (Exhaustive) FreqMax(c *Core, i int, q FreqQuery) float64 {
	return c.FreqSolve(i, q).FMax
}

// PowerLevels implements Solver.
func (Exhaustive) PowerLevels(c *Core, i int, fCore float64, q FreqQuery) (float64, float64) {
	r := c.PowerSolve(i, fCore, q)
	return r.VddV, r.VbbV
}

// variantFor returns the structural variant and power multiplier of
// subsystem sub under the given choices for an application of the given
// class. Only the class-matching queue and FU adapt (§4.1).
func variantFor(sub floorplan.Subsystem, class workload.Class,
	queue tech.QueueSize, fu tech.FUChoice) (vats.Variant, float64) {
	switch {
	case tech.IsQueueSubsystem(sub.ID) && classActive(sub, class) && queue == tech.QueueThreeQuarter:
		// A downsized queue saves some power along with its delay shift.
		return queue.Variant(), tech.QueueSmallFrac + 0.05
	case tech.IsFUSubsystem(sub.ID) && classActive(sub, class) && fu == tech.FULowSlope:
		return fu.Variant(), fu.PowerMult()
	default:
		return vats.IdentityVariant(), 1
	}
}

// QueryFor builds the FreqQuery for subsystem i under the given structure
// choices — exposed for diagnostics and figure generation.
func (c *Core) QueryFor(i int, prof pipeline.Profile, thK float64,
	queue tech.QueueSize, fu tech.FUChoice) FreqQuery {
	sub := c.Subs[i].Sub
	variant, mult := variantFor(sub, prof.Class, queue, fu)
	alpha := prof.Activity[sub.ID]
	return FreqQuery{
		THK:       thK,
		AlphaF:    alpha,
		Rho:       rhoFor(alpha, prof.CPITotalNom(queue)),
		Variant:   variant,
		PowerMult: mult,
	}
}

// Proposal is the controller's output before hardware retuning.
type Proposal struct {
	Point OperatingPoint
	// FPerSub is each subsystem's own frequency ceiling, for diagnostics
	// and the Figure 8 curves.
	FPerSub []float64
	// EstimatedPerf is the controller's Eq. 5 estimate at the proposal.
	EstimatedPerf float64
}

// Propose runs the full §4.2 optimization for one phase: per-subsystem
// Freq solves, the Figure 4 FU-replica decision, the CPI-aware issue-queue
// decision, the core-frequency min, and the per-subsystem Power solves.
func (c *Core) Propose(prof pipeline.Profile, thK float64, solver Solver) (Proposal, error) {
	if solver == nil {
		return Proposal{}, fmt.Errorf("adapt: nil solver")
	}
	defer c.Obs.Timer("adapt.propose").Start().Stop()
	n := c.N()

	// Step 1: per-subsystem frequency ceilings with default structures.
	// Subsystems the application leaves (nearly) idle — the FP side under
	// integer codes and vice versa — cannot constrain the clock: their
	// per-instruction error contribution rho*PE is negligible and they
	// stay cool, so they are excluded from the frequency min and later
	// parked at the lowest supply (§4.1 adapts only the structures "of the
	// type of application running").
	fBase := make([]float64, n)
	for i := 0; i < n; i++ {
		q := c.QueryFor(i, prof, thK, tech.QueueFull, tech.FUNormal)
		if q.AlphaF < IdleAlphaThreshold {
			fBase[i] = tech.FRelMax
			continue
		}
		fBase[i] = solver.FreqMax(c, i, q)
	}

	// Step 2: FU-replica decision (Figure 4): enable LowSlope only when
	// the normal FU would limit the core frequency.
	fu := tech.FUNormal
	fuIdx := c.activeFUIndex(prof.Class)
	if c.Config.FUReplication && fuIdx >= 0 {
		fNormal := fBase[fuIdx]
		minRest := minExcept(fBase, fuIdx)
		if fNormal < minRest {
			fLow := solver.FreqMax(c, fuIdx,
				c.QueryFor(fuIdx, prof, thK, tech.QueueFull, tech.FULowSlope))
			if fLow > fNormal {
				fu = tech.FULowSlope
				fBase[fuIdx] = fLow
			}
		}
	}

	// Step 3: issue-queue decision: compare estimated performance at the
	// core frequency each queue size would allow (§4.2).
	queue := tech.QueueFull
	qIdx := c.activeQueueIndex(prof.Class)
	fCoreFull := minOf(fBase)
	fCore := fCoreFull
	if c.Config.QueueResize && qIdx >= 0 {
		fSmallQ := solver.FreqMax(c, qIdx,
			c.QueryFor(qIdx, prof, thK, tech.QueueThreeQuarter, fu))
		fAll := append([]float64(nil), fBase...)
		fAll[qIdx] = fSmallQ
		fCoreSmall := minOf(fAll)
		perfFull := c.estimatePerf(fCoreFull, prof, tech.QueueFull)
		perfSmall := c.estimatePerf(fCoreSmall, prof, tech.QueueThreeQuarter)
		if perfSmall > perfFull {
			queue = tech.QueueThreeQuarter
			fBase[qIdx] = fSmallQ
			fCore = fCoreSmall
		}
	}
	fCore = tech.SnapFRelDown(fCore)

	// Step 4: Power algorithm — per-subsystem minimum-power levels at the
	// chosen core frequency.
	op := OperatingPoint{
		FCore: fCore,
		VddV:  make([]float64, n),
		VbbV:  make([]float64, n),
		Queue: queue,
		FU:    fu,
	}
	for {
		for i := 0; i < n; i++ {
			q := c.QueryFor(i, prof, thK, queue, fu)
			if q.AlphaF < IdleAlphaThreshold {
				// Park idle structures at the lowest supply and the most
				// leakage-cutting bias available.
				op.VddV[i] = minLevel(c.Config.VddLevels(nominalVdd))
				op.VbbV[i] = minLevel(c.Config.VbbLevels())
				continue
			}
			op.VddV[i], op.VbbV[i] = solver.PowerLevels(c, i, fCore, q)
		}
		// Step 5: the §4.2 global check that the overall processor power is
		// below PMAX (estimated at the sensed heat-sink temperature). If it
		// fails, the core frequency steps down and the Power algorithm
		// re-derives the per-subsystem levels, which relaxes any aggressive
		// boosts that were only needed for the higher frequency.
		if c.estimateTotalPower(op, prof, thK) <= c.Limits.PMaxW ||
			fCore <= tech.FRelMin+1e-9 {
			break
		}
		fCore = tech.SnapFRelDown(fCore - tech.FRelStep)
		op.FCore = fCore
	}
	return Proposal{
		Point:         op,
		FPerSub:       fBase,
		EstimatedPerf: c.estimatePerf(fCore, prof, queue),
	}, nil
}

// estimateTotalPower computes the controller's view of total processor
// power at an operating point, holding the heat sink at its sensed value.
func (c *Core) estimateTotalPower(op OperatingPoint, prof pipeline.Profile, thK float64) float64 {
	total := c.Power.Uncore(op.FCore, thK)
	if c.Config.TimingSpec {
		total += c.Checker.PowerW(op.FCore)
	}
	for i := 0; i < c.N(); i++ {
		sub := c.Subs[i].Sub
		_, mult := variantFor(sub, prof.Class, op.Queue, op.FU)
		st := c.Thermal.SubsystemSteady(thermal.SubsystemInput{
			Index:     i,
			Vt0Eff:    c.Subs[i].Vt0EffV,
			AlphaF:    prof.Activity[sub.ID],
			VddV:      op.VddV[i],
			VbbV:      op.VbbV[i],
			FRel:      op.FCore,
			PowerMult: mult,
		}, thK)
		total += st.PowerW()
	}
	return total
}

// activeFUIndex returns the index of the FU subsystem that adapts for the
// class, or -1.
func (c *Core) activeFUIndex(class workload.Class) int {
	want := floorplan.IntALU
	if class == workload.FP {
		want = floorplan.FPUnit
	}
	for i, s := range c.Subs {
		if s.Sub.ID == want {
			return i
		}
	}
	return -1
}

// activeQueueIndex returns the index of the issue queue that adapts for
// the class, or -1.
func (c *Core) activeQueueIndex(class workload.Class) int {
	want := floorplan.IntQ
	if class == workload.FP {
		want = floorplan.FPQ
	}
	for i, s := range c.Subs {
		if s.Sub.ID == want {
			return i
		}
	}
	return -1
}

// estimatePerf evaluates Eq. 5 at the constraint error rate (the PE term
// is pinned at PEMAX, which the paper shows costs almost nothing at 1e-4).
func (c *Core) estimatePerf(fRel float64, prof pipeline.Profile, queue tech.QueueSize) float64 {
	in := pipeline.PerfInputs{
		FRel:           fRel,
		CPIComp:        prof.CPIComp(queue),
		Mr:             prof.Mr,
		MpNomCycles:    prof.MpNomCycles,
		PE:             c.Limits.PEMax,
		RecoveryCycles: c.recoveryCycles(),
		ExtraCPI:       c.extraCPI(prof),
	}
	if c.Config.TimingSpec {
		chk := c.Checker
		in.Checker = &chk
	}
	return pipeline.Perf(in)
}

// recoveryCycles returns rp: the checker flush penalty, one cycle longer
// when FU replication lengthens the pipeline.
func (c *Core) recoveryCycles() float64 {
	rp := c.Checker.RecoveryCycles
	if c.Config.FUReplication {
		rp += tech.ExtraPipeStageCycles
	}
	return rp
}

// extraCPI returns the pipeline-lengthening CPI adder of FU replication:
// each mispredicted branch pays one extra cycle.
func (c *Core) extraCPI(prof pipeline.Profile) float64 {
	if !c.Config.FUReplication {
		return 0
	}
	return prof.MispredictsPerInstr * tech.ExtraPipeStageCycles
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func minExcept(xs []float64, skip int) float64 {
	m := math.Inf(1)
	for i, x := range xs {
		if i != skip && x < m {
			m = x
		}
	}
	return m
}

// SystemState is the true steady state of the core at an operating point:
// what the sensors of §4.3.2 would observe.
type SystemState struct {
	Core    thermal.CoreState
	PE      float64 // errors per instruction at the real temperatures
	PerfRel float64 // Eq. 5 performance relative to nominal-frequency ideal
	TotalW  float64 // including the checker
	// Violation flags against the Limits.
	ErrViol, TempViol, PowerViol bool
}

// Violated reports whether any constraint is violated.
func (s SystemState) Violated() bool { return s.ErrViol || s.TempViol || s.PowerViol }

// evalMemoCap bounds the Evaluate memo; one entry holds a SystemState
// plus its encoded key (~1/2 KiB), so the cap is a few MiB per core.
const evalMemoCap = 1 << 14

// appendF64 encodes one float64 exactly (by bit pattern) into a memo key.
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// evalMemoKey encodes everything Evaluate's result depends on besides the
// core's immutable models: the full operating point and the profile fields
// adaptation reads (the class, the per-subsystem activity, and the CPI and
// miss terms; the app name, phase index and weight are labels no solve
// reads). The encoding is exact (float bit patterns), so a hit can only
// occur for a bitwise-identical query. The key is built in a reused
// buffer; map lookups via string(key) do not allocate.
func (c *Core) evalMemoKey(op OperatingPoint, prof pipeline.Profile) []byte {
	k := c.evalKey[:0]
	k = appendF64(k, op.FCore)
	for i := range op.VddV {
		k = appendF64(k, op.VddV[i])
		k = appendF64(k, op.VbbV[i])
	}
	k = append(k, byte(op.Queue), byte(op.FU))
	k = append(k, byte(prof.Class))
	for _, a := range prof.Activity {
		k = appendF64(k, a)
	}
	k = appendF64(k, prof.CPICompFull)
	k = appendF64(k, prof.CPICompSmall)
	k = appendF64(k, prof.Mr)
	k = appendF64(k, prof.MpNomCycles)
	k = appendF64(k, prof.MispredictsPerInstr)
	c.evalKey = k
	return k
}

// Evaluate computes the true system state at an operating point for a
// phase: the coupled thermal solution, the real error rate (stage curves at
// the real per-subsystem temperatures), performance, and constraint checks.
//
// Results are memoized by exact key: retuning and the steady-state loop
// re-probe the same (operating point, profile) pairs constantly, and
// repeated phases across the environment sweep land on identical keys, so
// repeats are table lookups ("core.memo.evaluate_hits"). Once the memo
// holds evalMemoCap entries it stores nothing more, and MemoComplete
// reads false from then on. DisablePruning routes around the memo.
func (c *Core) Evaluate(op OperatingPoint, prof pipeline.Profile) (SystemState, error) {
	memo := !c.DisablePruning && c.evalMemo != nil
	var key []byte
	if memo {
		key = c.evalMemoKey(op, prof)
		if st, ok := c.evalMemo[string(key)]; ok {
			c.Obs.Counter("core.memo.evaluate_hits").Inc()
			return st, nil
		}
		c.Obs.Counter("core.memo.evaluate_misses").Inc()
	}
	st := c.evaluate(op, prof)
	if memo && len(c.evalMemo) < evalMemoCap {
		c.evalMemo[string(key)] = st
	}
	return st, nil
}

// MemoComplete reports whether the Evaluate memo holds every state the
// core has evaluated: it is on (DisablePruning stays off) and below its
// cap, so it has refused no insert. Solving again a unit the core has
// already solved then hits the memo at every probe, which leaves the
// thermal warm start untouched, and Propose's Freq/Power scans are pure,
// so the solve returns its first result bit for bit. A caller that kept
// that result may return it instead of solving.
func (c *Core) MemoComplete() bool {
	return !c.DisablePruning && c.evalMemo != nil && len(c.evalMemo) < evalMemoCap
}

// evaluate is the uncached Evaluate body.
func (c *Core) evaluate(op OperatingPoint, prof pipeline.Profile) SystemState {
	n := c.N()
	if cap(c.evalIns) < n {
		c.evalIns = make([]thermal.SubsystemInput, n)
	}
	ins := c.evalIns[:n]
	for i := 0; i < n; i++ {
		sub := c.Subs[i].Sub
		_, mult := variantFor(sub, prof.Class, op.Queue, op.FU)
		ins[i] = thermal.SubsystemInput{
			Index:     i,
			Vt0Eff:    c.Subs[i].Vt0EffV,
			AlphaF:    prof.Activity[sub.ID],
			VddV:      op.VddV[i],
			VbbV:      op.VbbV[i],
			FRel:      op.FCore,
			PowerMult: mult,
		}
	}
	// The core's private solver warm-starts each solve from the previous
	// converged state; Obs is forwarded lazily because the registry is
	// assigned after NewCore.
	c.solver.Obs = c.Obs
	coreState, err := c.solver.CoreSteady(ins, op.FCore)
	if err != nil {
		// Thermal runaway or non-convergence: the real hardware would trip
		// its thermal and power sensors immediately. Report a fully
		// violated state so retuning backs the configuration off, rather
		// than failing the adaptation.
		return SystemState{
			Core:      coreState,
			PE:        1,
			TotalW:    math.Inf(1),
			ErrViol:   true,
			TempViol:  true,
			PowerViol: true,
		}
	}

	// Real error rate: Eq. 4 with stage curves at the solved temperatures.
	pe := 0.0
	cpi := prof.CPIComp(op.Queue)
	for i := 0; i < n; i++ {
		sub := c.Subs[i].Sub
		variant, _ := variantFor(sub, prof.Class, op.Queue, op.FU)
		curve := c.Subs[i].Stage.EvalInto(vats.Cond{
			VddV: op.VddV[i], VbbV: op.VbbV[i], TK: coreState.Subs[i].TK,
		}, variant, &c.evalCurve)
		rho := rhoFor(prof.Activity[sub.ID], cpi)
		pe += rho * curve.PE(op.FCore)
	}

	total := coreState.TotalW
	if c.Config.TimingSpec {
		total += c.Checker.PowerW(op.FCore)
	}

	perfIn := pipeline.PerfInputs{
		FRel:           op.FCore,
		CPIComp:        cpi,
		Mr:             prof.Mr,
		MpNomCycles:    prof.MpNomCycles,
		PE:             pe,
		RecoveryCycles: c.recoveryCycles(),
		ExtraCPI:       c.extraCPI(prof),
	}
	if c.Config.TimingSpec {
		chk := c.Checker
		perfIn.Checker = &chk
	}

	st := SystemState{
		Core:    coreState,
		PE:      pe,
		PerfRel: pipeline.Perf(perfIn),
		TotalW:  total,
	}
	st.ErrViol = pe > c.Limits.PEMax*1.0001
	st.TempViol = coreState.MaxTK() > c.Limits.TMaxK+0.01 || coreState.THK > c.Limits.THMaxK+0.01
	st.PowerViol = total > c.Limits.PMaxW*1.0001
	if !c.Config.TimingSpec && pe > vats.PEZero*float64(c.N())*10 {
		// Without a checker, any measurable error rate is fatal.
		st.ErrViol = true
	}
	return st
}
