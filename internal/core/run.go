package core

import (
	"fmt"
	"math"

	"repro/internal/adapt"
	"repro/internal/pipeline"
	"repro/internal/tech"
	"repro/internal/thermal"
	"repro/internal/varius"
	"repro/internal/vats"
	"repro/internal/workload"
)

// AppRun is the phase-weighted result of running one application on one
// chip in one environment/mode.
type AppRun struct {
	App  string
	Env  Environment
	Mode Mode
	// FRel is the (phase-weighted) relative core frequency.
	FRel float64
	// Perf is absolute Eq. 5 performance (relative instructions/s);
	// normalize against the NoVar run of the same app for PerfR.
	Perf float64
	// PowerW is the total processor power (core + L1 + L2 + checker).
	PowerW float64
	// PE is the error rate per instruction.
	PE float64
	// Outcomes counts controller-invocation outcomes across phases
	// (dynamic modes only).
	Outcomes [adapt.NumOutcomes]int
	// SmallQueueFrac and LowSlopeFrac are the fraction of time spent with
	// the downsized queue / LowSlope FU enabled.
	SmallQueueFrac float64
	LowSlopeFrac   float64
	// CacheHit reports that UnitAppRun read the run from the artifact
	// store rather than computing it. It describes the call, not the
	// result, so the stored payload does not carry it.
	CacheHit bool
}

// designCorner is the worst-case operating condition frequency binning
// assumes (nominal supply at TMAX).
func (s *Simulator) designCorner() vats.Cond {
	return vats.Cond{VddV: s.opts.Varius.VddNomV, VbbV: 0, TK: s.opts.Varius.TOpRefK}
}

// ChipFVar returns a chip's worst-case-safe relative frequency: the minimum
// over subsystems of the error-free frequency at the design corner. This is
// the Baseline environment's clock and the quantity whose mean across chips
// is the paper's 78%.
func (s *Simulator) ChipFVar(chip *varius.ChipMaps) (float64, error) {
	pl, err := vats.NewPipeline(s.fp, chip, s.opts.Varius)
	if err != nil {
		return 0, err
	}
	return s.stagesFVar(pl.Stages), nil
}

// stagesFVar is ChipFVar over a chip's stage models, already built: the
// minimum over stages of the error-free frequency at the design corner.
func (s *Simulator) stagesFVar(stages []*vats.Stage) float64 {
	corner := s.designCorner()
	min := math.Inf(1)
	for _, st := range stages {
		if fv := st.Eval(corner, vats.IdentityVariant()).FVar(); fv < min {
			min = fv
		}
	}
	return min
}

// anchorRun is runFixed through the apprun kind: the Baseline or NoVar
// run of app at fRel on chip seed (noVarSeed for NoVar), read from the
// store or computed and stored. vt0Eff, called only on a miss, supplies
// each subsystem's leakage-effective Vt0. runFixed starts from a fresh
// thermal solver, so a stored anchor is exactly what any run computes.
func (s *Simulator) anchorRun(seed int64, env Environment, app workload.App, fRel float64, vt0Eff func() []float64) (AppRun, error) {
	return cached(s.store, apprunKind, s.anchorKey(seed, env, app, fRel), decodeAppRun, infallible(encodeAppRun),
		func() (AppRun, error) { return s.runFixed(app, fRel, env, vt0Eff()) })
}

// runFixed evaluates an application at a fixed frequency with nominal
// supplies and no checker — the Baseline and NoVar environments. vt0Eff
// supplies each subsystem's leakage-effective Vt0.
func (s *Simulator) runFixed(app workload.App, fRel float64, env Environment, vt0Eff []float64) (AppRun, error) {
	run := AppRun{App: app.Name, Env: env, FRel: fRel}
	// One solver per call, warm-started across the app's phases only:
	// successive phases sit at nearby operating points, and a local solver
	// keeps the result independent of earlier calls and the pool
	// goroutines that share s.th isolated from each other.
	sv := thermal.NewSolver(s.th)
	sv.Obs = s.obs
	ins := make([]thermal.SubsystemInput, s.fp.N())
	for _, ph := range app.Phases {
		prof, err := s.Profile(app, ph)
		if err != nil {
			return AppRun{}, err
		}
		phaseSW := s.obs.Timer("core.phase.eval").Start()
		perf := pipeline.Perf(pipeline.PerfInputs{
			FRel:        fRel,
			CPIComp:     prof.CPICompFull,
			Mr:          prof.Mr,
			MpNomCycles: prof.MpNomCycles,
		})
		for i, sub := range s.fp.Subsystems {
			ins[i] = thermal.SubsystemInput{
				Index:  i,
				Vt0Eff: vt0Eff[i],
				AlphaF: prof.Activity[sub.ID],
				VddV:   s.opts.Varius.VddNomV,
				FRel:   fRel,
			}
		}
		st, err := sv.CoreSteady(ins, fRel)
		phaseSW.Stop()
		if err != nil {
			return AppRun{}, fmt.Errorf("core: %s %s: %w", env, app.Name, err)
		}
		run.Perf += ph.Weight * perf
		run.PowerW += ph.Weight * st.TotalW
	}
	return run, nil
}

// chipVt0Effs extracts every subsystem's leakage-effective Vt0.
func (s *Simulator) chipVt0Effs(chip *varius.ChipMaps) []float64 {
	out := make([]float64, s.fp.N())
	for i, sub := range s.fp.Subsystems {
		_, _, leakEff := chip.RegionVtStats(sub.Rect, s.opts.Varius)
		out[i] = leakEff
	}
	return out
}

// noVarSeed is the chip seed NoVar anchors are keyed under: Chip gives
// the no-variation chip for any negative seed.
const noVarSeed = -1

// RunNoVar runs one application on the idealized no-variation processor at
// the nominal frequency — the normalization reference of Figures 10-12 —
// through the artifact store when one is attached.
func (s *Simulator) RunNoVar(app workload.App) (AppRun, error) {
	return s.anchorRun(noVarSeed, NoVar, app, 1.0, func() []float64 { return s.chipVt0Effs(s.gen.NoVarChip()) })
}

// StaticPoint chooses the one conservative configuration a Static chip uses
// for a workload class: the controller is run once, at test time, against a
// worst-case profile (per-subsystem peak activity and CPI across the class
// suite), so that no application can push the chip over its constraints.
func (s *Simulator) StaticPoint(core *adapt.Core, class workload.Class, apps []workload.App) (adapt.OperatingPoint, error) {
	prof, err := s.conservativeProfile(class, apps)
	if err != nil {
		return adapt.OperatingPoint{}, err
	}
	res, err := core.AdaptSteady(prof, adapt.Exhaustive{})
	if err != nil {
		return adapt.OperatingPoint{}, err
	}
	return res.Point, nil
}

// conservativeProfile builds the worst-case profile of a class.
func (s *Simulator) conservativeProfile(class workload.Class, apps []workload.App) (pipeline.Profile, error) {
	var worst pipeline.Profile
	worst.Class = class
	worst.AppName = "static-" + class.String()
	worst.Weight = 1
	first := true
	for _, app := range apps {
		if app.Class != class {
			continue
		}
		for _, ph := range app.Phases {
			p, err := s.Profile(app, ph)
			if err != nil {
				return pipeline.Profile{}, err
			}
			if first {
				worst.CPICompFull = p.CPICompFull
				worst.CPICompSmall = p.CPICompSmall
				worst.Mr = p.Mr
				worst.MpNomCycles = p.MpNomCycles
				worst.MispredictsPerInstr = p.MispredictsPerInstr
				worst.Activity = p.Activity
				first = false
				continue
			}
			worst.CPICompFull = math.Max(worst.CPICompFull, p.CPICompFull)
			worst.CPICompSmall = math.Max(worst.CPICompSmall, p.CPICompSmall)
			worst.Mr = math.Max(worst.Mr, p.Mr)
			worst.MpNomCycles = math.Max(worst.MpNomCycles, p.MpNomCycles)
			worst.MispredictsPerInstr = math.Max(worst.MispredictsPerInstr, p.MispredictsPerInstr)
			for i := range worst.Activity {
				worst.Activity[i] = math.Max(worst.Activity[i], p.Activity[i])
			}
		}
	}
	if first {
		return pipeline.Profile{}, fmt.Errorf("core: no %v applications for static profile", class)
	}
	return worst, nil
}

// staticRetune evaluates one phase at a chip's static operating point.
// The hardware's protective retuning still acts if the phase violates a
// constraint, but Static hardware does not hunt for headroom: the retuned
// frequency is capped at the static choice (retuning only protects).
func staticRetune(core *adapt.Core, point adapt.OperatingPoint, prof pipeline.Profile) (adapt.RetuneResult, error) {
	res, err := core.Retune(point, prof)
	if err != nil {
		return adapt.RetuneResult{}, err
	}
	if res.Point.FCore > point.FCore {
		capped := res.Point.Clone()
		capped.FCore = point.FCore
		st, err := core.Evaluate(capped, prof)
		if err != nil {
			return adapt.RetuneResult{}, err
		}
		res = adapt.RetuneResult{Point: capped, State: st, Outcome: res.Outcome}
	}
	return res, nil
}

// accumulate folds one phase's retune result into the app run.
func accumulate(run *AppRun, weight float64, res adapt.RetuneResult) {
	run.FRel += weight * res.Point.FCore
	run.Perf += weight * res.State.PerfRel
	run.PowerW += weight * res.State.TotalW
	run.PE += weight * res.State.PE
	run.Outcomes[res.Outcome]++
	if res.Point.Queue == tech.QueueThreeQuarter {
		run.SmallQueueFrac += weight
	}
	if res.Point.FU == tech.FULowSlope {
		run.LowSlopeFrac += weight
	}
}

// envOfConfig maps a technique configuration back to its Table 1 name.
// Configurations outside Table 1 (e.g. the Figure 13 TS+ABB grid) have no
// environment name and are reported as an error rather than silently
// mislabeled; the figure experiments that use them evaluate cores
// directly and never come through here.
func envOfConfig(cfg tech.Config) (Environment, error) {
	switch cfg {
	case (tech.Config{TimingSpec: true}):
		return TS, nil
	case (tech.Config{TimingSpec: true, ASV: true}):
		return TSASV, nil
	case (tech.Config{TimingSpec: true, ASV: true, ABB: true}):
		return TSASVABB, nil
	case (tech.Config{TimingSpec: true, ASV: true, QueueResize: true}):
		return TSASVQ, nil
	case (tech.Config{TimingSpec: true, ASV: true, QueueResize: true, FUReplication: true}):
		return TSASVQFU, nil
	case (tech.Config{TimingSpec: true, ASV: true, ABB: true, QueueResize: true, FUReplication: true}):
		return All, nil
	default:
		return TS, fmt.Errorf("core: config %+v matches no Table 1 environment", cfg)
	}
}
