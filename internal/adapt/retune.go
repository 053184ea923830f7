package adapt

import (
	"fmt"
	"math"

	"repro/internal/pipeline"
	"repro/internal/tech"
)

// Outcome classifies one controller invocation, as in Figure 13.
type Outcome int

const (
	// OutcomeNoChange: no constraint violated and the first attempt to
	// raise f fails — the controller's output was (near-)optimal.
	OutcomeNoChange Outcome = iota
	// OutcomeLowFreq: no constraint violated but retuning found headroom
	// to raise f.
	OutcomeLowFreq
	// OutcomeError: the configuration violated PEMAX and retuning had to
	// lower f.
	OutcomeError
	// OutcomeTemp: the configuration violated TMAX / TH_MAX.
	OutcomeTemp
	// OutcomePower: the configuration violated PMAX.
	OutcomePower
	NumOutcomes // sentinel
)

// String names the outcome as the paper's Figure 13 legend does.
func (o Outcome) String() string {
	switch o {
	case OutcomeNoChange:
		return "NoChange"
	case OutcomeLowFreq:
		return "LowFreq"
	case OutcomeError:
		return "Error"
	case OutcomeTemp:
		return "Temp"
	case OutcomePower:
		return "Power"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// RetuneResult is the final, constraint-respecting configuration after the
// hardware retuning cycles of §4.3.3.
type RetuneResult struct {
	Point   OperatingPoint
	State   SystemState
	Outcome Outcome
	// Steps counts evaluate-adjust iterations the hardware performed.
	Steps int
}

// outcomeCounters pre-builds the metric name of each outcome so the hot
// path records without allocating.
var outcomeCounters = [NumOutcomes]string{
	OutcomeNoChange: "adapt.outcome.NoChange",
	OutcomeLowFreq:  "adapt.outcome.LowFreq",
	OutcomeError:    "adapt.outcome.Error",
	OutcomeTemp:     "adapt.outcome.Temp",
	OutcomePower:    "adapt.outcome.Power",
}

// record books one finished retune into the core's metrics registry.
func (c *Core) record(res RetuneResult) RetuneResult {
	c.Obs.Counter("adapt.retune.invocations").Inc()
	c.Obs.Counter("adapt.retune.cycles").Add(int64(res.Steps))
	if res.Outcome >= 0 && res.Outcome < NumOutcomes {
		c.Obs.Counter(outcomeCounters[res.Outcome]).Inc()
	}
	return res
}

// classify maps the initial violation to its Figure 13 category. The error
// sensor trips fastest (within the phase), then thermal, then power (§4.3.3
// gives error violations the shortest detection latency).
func classify(st SystemState) Outcome {
	switch {
	case st.ErrViol:
		return OutcomeError
	case st.TempViol:
		return OutcomeTemp
	case st.PowerViol:
		return OutcomePower
	default:
		return OutcomeNoChange
	}
}

// Retune applies the retuning cycles: if the proposed configuration
// violates a constraint, frequency backs off exponentially (1, 2, 4, 8
// steps) without re-running the controller until the violation clears, then
// ramps back up in single steps to just below the violation point. If the
// configuration is clean, single up-steps probe for headroom (the LowFreq
// vs NoChange distinction). Voltages are never touched — only f moves.
func (c *Core) Retune(op OperatingPoint, prof pipeline.Profile) (RetuneResult, error) {
	st, err := c.Evaluate(op, prof)
	if err != nil {
		return RetuneResult{}, err
	}
	outcome := classify(st)
	steps := 1
	cur := op.Clone()

	if st.Violated() {
		// Exponential back-off: 1, 2, 4, 8 steps, then repeat 8s.
		back := 1
		for st.Violated() && cur.FCore > tech.FRelMin+1e-9 {
			cur.FCore = tech.SnapFRelDown(cur.FCore - float64(back)*tech.FRelStep)
			if cur.FCore < tech.FRelMin {
				cur.FCore = tech.FRelMin
			}
			st, err = c.Evaluate(cur, prof)
			if err != nil {
				return RetuneResult{}, err
			}
			steps++
			if back < 8 {
				back *= 2
			}
		}
		// Gradual single-step ramp back up to just below violation.
		for cur.FCore < tech.FRelMax-1e-9 {
			probe := cur.Clone()
			probe.FCore = tech.SnapFRelDown(probe.FCore + tech.FRelStep + 1e-9)
			pst, err := c.Evaluate(probe, prof)
			if err != nil {
				return RetuneResult{}, err
			}
			steps++
			if pst.Violated() {
				break
			}
			cur, st = probe, pst
		}
		return c.record(RetuneResult{Point: cur, State: st, Outcome: outcome, Steps: steps}), nil
	}

	// Clean configuration: probe upward for headroom.
	raised := false
	for cur.FCore < tech.FRelMax-1e-9 {
		probe := cur.Clone()
		probe.FCore = tech.SnapFRelDown(probe.FCore + tech.FRelStep + 1e-9)
		pst, err := c.Evaluate(probe, prof)
		if err != nil {
			return RetuneResult{}, err
		}
		steps++
		if pst.Violated() {
			break
		}
		cur, st = probe, pst
		raised = true
	}
	if raised {
		outcome = OutcomeLowFreq
	}
	return c.record(RetuneResult{Point: cur, State: st, Outcome: outcome, Steps: steps}), nil
}

// AdaptPhase is the complete §4.3.3 sequence for one new phase: run the
// controller (Propose) and let the hardware retune the result.
func (c *Core) AdaptPhase(prof pipeline.Profile, thK float64, solver Solver) (RetuneResult, error) {
	prop, err := c.Propose(prof, thK, solver)
	if err != nil {
		return RetuneResult{}, err
	}
	return c.Retune(prop.Point, prof)
}

// AdaptSteady models the long-run behavior of a stable phase: the heat-sink
// temperature has a time constant of tens of seconds (§4.1) and is
// re-sensed every 2-3 s, after which the controller re-adapts, so the
// system settles into a fixed point where the configuration chosen at the
// sensed TH reproduces that TH. The returned outcome is that of the last
// (steady) controller invocation.
//
// A recurring phase reuses its saved configuration instead of re-running
// the controller (§4.3.3): solves are memoized per core by the exact
// profile key and the solver's identity (Exhaustive, or the *FuzzySolver
// pointer; any other Solver bypasses the memo, as does DisablePruning).
// A solve is stored only if the Evaluate memo refused no insert while it
// ran. A recompute on this core would then hit the Evaluate memo at every
// probe, and Propose's Freq/Power scans are pure, so it would reproduce
// the stored result bit for bit — a hit is exactly a recompute, thermal
// warm start included. A hit replays the adapt.retune.* and
// adapt.outcome.* counts the stored solve recorded, so those counters
// still show every invocation ("adapt.steady.memo_hits" tells them apart).
func (c *Core) AdaptSteady(prof pipeline.Profile, solver Solver) (RetuneResult, error) {
	fuzzy, memo := steadySolverKey(solver)
	memo = memo && c.steadyMemo != nil && !c.DisablePruning
	var key steadyKey
	if memo {
		c.evalKey = appendProfileKey(c.evalKey[:0], prof)
		key = steadyKey{fuzzy: fuzzy, prof: string(c.evalKey)}
		if e, ok := c.steadyMemo[key]; ok {
			c.Obs.Counter("adapt.steady.memo_hits").Inc()
			c.replay(&e)
			res := e.res
			res.Point = res.Point.Clone()
			return res, nil
		}
		c.Obs.Counter("adapt.steady.memo_misses").Inc()
	}
	refused := c.evalRefused
	var e steadyEntry
	res, err := c.adaptSteady(prof, solver, &e)
	if err != nil {
		return RetuneResult{}, err
	}
	if memo && c.evalRefused == refused && len(c.steadyMemo) < evalMemoCap {
		e.res = res
		e.res.Point = res.Point.Clone()
		c.steadyMemo[key] = e
	}
	return res, nil
}

// adaptSteady is the unmemoized AdaptSteady loop; it tallies each
// controller invocation's retune record into e.
func (c *Core) adaptSteady(prof pipeline.Profile, solver Solver, e *steadyEntry) (RetuneResult, error) {
	th := c.Thermal.Params().THBaseK + 10 // initial sensor reading guess
	var res RetuneResult
	var err error
	for iter := 0; iter < 8; iter++ {
		res, err = c.AdaptPhase(prof, th, solver)
		if err != nil {
			return RetuneResult{}, err
		}
		e.cycles += int64(res.Steps)
		e.outcomes[res.Outcome]++
		newTH := res.State.Core.THK
		if newTH == 0 || math.IsInf(newTH, 0) {
			// Unconverged thermal state: treat the previous sensed value
			// as the best available and stop.
			break
		}
		if math.Abs(newTH-th) < 0.5 {
			return res, nil
		}
		th = 0.5*th + 0.5*newTH
	}
	return res, nil
}

// steadyKey identifies one memoized AdaptSteady solve: the solver (a nil
// fuzzy pointer stands for Exhaustive) and the exact profile encoding.
// A FuzzySolver is never modified once trained or decoded, so its pointer
// identifies its answers.
type steadyKey struct {
	fuzzy *FuzzySolver
	prof  string
}

// steadyEntry is one memoized AdaptSteady result plus the retune records
// of the controller invocations behind it.
type steadyEntry struct {
	res      RetuneResult
	cycles   int64
	outcomes [NumOutcomes]int64
}

// steadySolverKey returns the solver's memo identity, or false for a
// solver the steady memo cannot key.
func steadySolverKey(s Solver) (*FuzzySolver, bool) {
	switch s := s.(type) {
	case Exhaustive:
		return nil, true
	case *FuzzySolver:
		return s, s != nil
	}
	return nil, false
}

// replay books a memoized solve's retune records as record did when the
// solve ran. Outcomes it never recorded stay untouched, so the retune and
// outcome counters read exactly as if the solve had been recomputed.
func (c *Core) replay(e *steadyEntry) {
	var n int64
	for o, k := range e.outcomes {
		if k > 0 {
			c.Obs.Counter(outcomeCounters[o]).Add(k)
			n += k
		}
	}
	c.Obs.Counter("adapt.retune.invocations").Add(n)
	c.Obs.Counter("adapt.retune.cycles").Add(e.cycles)
}
