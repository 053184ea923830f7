package thermal

import (
	"fmt"
	"math"
	"time"

	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/varius"
)

// Params configures the thermal network.
type Params struct {
	// THBaseK is the heat-sink temperature at zero core power (ambient
	// plus case offset).
	THBaseK float64
	// RthHSKPerW is the effective heat-sink thermal resistance seen by one
	// core's power (K/W): TH = THBaseK + RthHS * Pcore.
	RthHSKPerW float64
	// RthCoefKMM2PerW is the vertical thermal-resistance coefficient:
	// Rth_i = coef / (A_i + SpreadMM2) with A_i in mm^2. Rth is a function
	// of subsystem area, as the paper notes (§4.1).
	RthCoefKMM2PerW float64
	// SpreadMM2 models lateral heat spreading, which keeps very small
	// blocks (the ALU) from having unboundedly large Rth.
	SpreadMM2 float64
	// CoreAreaMM2 is the physical area of core + L1s at 45 nm.
	CoreAreaMM2 float64
	// MaxIter and TolK bound the fixed-point iteration.
	MaxIter int
	TolK    float64
}

// DefaultParams returns the calibrated thermal network: a core that reaches
// the paper's TH_MAX = 70 C heat-sink limit near PMAX = 30 W, and hotspot
// rises of a few kelvin to ~15 K depending on density.
func DefaultParams() Params {
	return Params{
		THBaseK:         45 + varius.CelsiusOffset,
		RthHSKPerW:      0.8,
		RthCoefKMM2PerW: 1.6,
		SpreadMM2:       0.05,
		CoreAreaMM2:     15.0,
		MaxIter:         60,
		TolK:            1e-3,
	}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.THBaseK <= 0 || p.RthHSKPerW < 0 || p.RthCoefKMM2PerW <= 0 ||
		p.CoreAreaMM2 <= 0 || p.SpreadMM2 < 0 {
		return fmt.Errorf("thermal: invalid params %+v", p)
	}
	if p.MaxIter < 1 || p.TolK <= 0 {
		return fmt.Errorf("thermal: invalid iteration control %+v", p)
	}
	return nil
}

// Model is the thermal network for one core.
type Model struct {
	params Params
	vp     varius.Params
	pw     *power.Model
	rth    []float64 // K/W per subsystem
}

// NewModel builds the network, deriving each subsystem's Rth from its area.
func NewModel(fp *floorplan.Floorplan, vp varius.Params, pw *power.Model, p Params) (*Model, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m := &Model{params: p, vp: vp, pw: pw, rth: make([]float64, fp.N())}
	for i, s := range fp.Subsystems {
		areaMM2 := s.AreaFrac * p.CoreAreaMM2
		m.rth[i] = p.RthCoefKMM2PerW / (areaMM2 + p.SpreadMM2)
	}
	return m, nil
}

// Params returns the thermal configuration.
func (m *Model) Params() Params { return m.params }

// Rth returns subsystem i's thermal resistance to the heat sink (K/W).
func (m *Model) Rth(i int) float64 { return m.rth[i] }

// SubsystemInput is the operating point of one subsystem for thermal/power
// evaluation: exactly the controller inputs of §4.1 (minus TH, passed
// separately).
type SubsystemInput struct {
	Index  int     // floorplan index
	Vt0Eff float64 // leakage-effective tester-referred Vt0 (V)
	AlphaF float64 // activity factor (accesses/cycle)
	VddV   float64
	VbbV   float64
	FRel   float64 // relative core frequency
	// PowerMult scales both dynamic and static power, modeling structure
	// choices (the LowSlope FU replica costs ~30% more power; a downsized
	// queue saves some). Zero means 1.
	PowerMult float64
}

// powerMult returns the effective multiplier.
func (in SubsystemInput) powerMult() float64 {
	if in.PowerMult == 0 {
		return 1
	}
	return in.PowerMult
}

// SubsystemState is the converged steady state of one subsystem.
type SubsystemState struct {
	TK        float64 // device temperature
	PdynW     float64
	PstaW     float64
	VtV       float64 // operating threshold voltage at TK
	Converged bool
}

// PowerW returns total subsystem power.
func (s SubsystemState) PowerW() float64 { return s.PdynW + s.PstaW }

// SubsystemSteady solves the Eq. 6-9 feedback for one subsystem at heat-sink
// temperature thK. Non-convergence (thermal runaway at an absurd operating
// point) is reported via Converged=false with the last iterate, which will
// violate any temperature constraint and so be rejected by callers.
func (m *Model) SubsystemSteady(in SubsystemInput, thK float64) SubsystemState {
	mult := in.powerMult()
	pdyn := mult * m.pw.Pdyn(in.Index, in.AlphaF, in.VddV, in.FRel)
	t := thK
	var vt, psta float64
	for iter := 0; iter < m.params.MaxIter; iter++ {
		vt = m.vp.VtAt(in.Vt0Eff, t, in.VddV, in.VbbV)
		psta = mult * m.pw.Psta(in.Index, vt, in.VddV, t)
		next := thK + m.rth[in.Index]*(pdyn+psta)
		if math.Abs(next-t) < m.params.TolK {
			return SubsystemState{TK: next, PdynW: pdyn, PstaW: psta, VtV: vt, Converged: true}
		}
		// The map T -> TH + Rth*Psta(T) is a contraction away from thermal
		// runaway (its slope is well below 1), so the undamped update
		// converges fast; the hard cap catches runaway.
		t = next
		if t > 500 { // > 225 C: unambiguous runaway, stop early
			break
		}
	}
	return SubsystemState{TK: t, PdynW: pdyn, PstaW: psta, VtV: vt, Converged: false}
}

// FRelMaxForTemp returns the highest relative frequency at which subsystem
// in (ignoring in.FRel) stays at or below tmaxK given heat-sink temperature
// thK. Because Pdyn is linear in f and at the T = TMAX boundary the static
// power is known exactly, this is closed-form. Returns 0 if the subsystem
// exceeds tmaxK even at f = 0 (leakage alone), and +Inf if it can never
// reach tmaxK (zero Rth paths are excluded by construction).
func (m *Model) FRelMaxForTemp(in SubsystemInput, thK, tmaxK float64) float64 {
	return m.FRelMaxForLeakage(in, thK, tmaxK, m.LeakageAt(in, tmaxK))
}

// LeakageAt returns subsystem in's static power at device temperature tK
// before in.PowerMult, ignoring in.FRel and in.AlphaF. It is
// FRelMaxForTemp's one Exp; for a given chip and tK it depends only on the
// subsystem, Vdd and Vbb, so callers may tabulate it.
func (m *Model) LeakageAt(in SubsystemInput, tK float64) float64 {
	vt := m.vp.VtAt(in.Vt0Eff, tK, in.VddV, in.VbbV)
	return m.pw.Psta(in.Index, vt, in.VddV, tK)
}

// FRelMaxForLeakage is FRelMaxForTemp given LeakageAt(in, tmaxK), with the
// same operations in the same order, so the two agree bit for bit.
func (m *Model) FRelMaxForLeakage(in SubsystemInput, thK, tmaxK, leakAtMaxW float64) float64 {
	mult := in.powerMult()
	pstaAtMax := mult * leakAtMaxW
	budget := (tmaxK-thK)/m.rth[in.Index] - pstaAtMax
	if budget <= 0 {
		return 0
	}
	pdynPerF := mult * m.pw.Pdyn(in.Index, in.AlphaF, in.VddV, 1.0)
	if pdynPerF <= 0 {
		return math.Inf(1)
	}
	return budget / pdynPerF
}

// CoreState is the converged steady state of the whole core at one
// operating point.
type CoreState struct {
	THK     float64
	Subs    []SubsystemState
	UncoreW float64
	TotalW  float64
}

// MaxTK returns the hottest subsystem temperature.
func (c CoreState) MaxTK() float64 {
	t := 0.0
	for _, s := range c.Subs {
		if s.TK > t {
			t = s.TK
		}
	}
	return t
}

// CoreSteady solves the whole core: the inner per-subsystem fixed points
// nested in the outer heat-sink feedback TH = THBase + RthHS * Ptotal.
// fRel is the core frequency applied to the uncore; each subsystem input
// carries its own FRel (equal to the core's in practice).
//
// This is the reference algorithm: a throwaway Solver with acceleration
// disabled, reproducing the original undamped inner loop step for step.
// Hot callers that solve many nearby operating points should hold a Solver
// instead and let it warm-start and accelerate.
func (m *Model) CoreSteady(ins []SubsystemInput, fRel float64) (CoreState, error) {
	s := Solver{m: m, DisableAcceleration: true}
	return s.CoreSteady(ins, fRel)
}

// subsystemSteady is SubsystemSteady generalized with a warm-start
// temperature t0 and Aitken Δ² acceleration of the contraction
// T -> TH + Rth*(Pdyn+Psta(T)): each loop turn takes two plain steps and
// extrapolates through the secant of the residual, which converges in 1-3
// turns where the plain contraction needs ~10. The extrapolated iterate is
// only accepted inside the physical bracket (0, 500 K), falling back to
// the second plain step otherwise, and convergence is still certified by
// the plain-step residual |next-t| < TolK, so accelerated answers satisfy
// the same tolerance contract as SubsystemSteady.
func (m *Model) subsystemSteady(in SubsystemInput, thK, t0 float64) SubsystemState {
	mult := in.powerMult()
	pdyn := mult * m.pw.Pdyn(in.Index, in.AlphaF, in.VddV, in.FRel)
	t := t0
	var vt, psta float64
	for iter := 0; iter < m.params.MaxIter; iter++ {
		vt = m.vp.VtAt(in.Vt0Eff, t, in.VddV, in.VbbV)
		psta = mult * m.pw.Psta(in.Index, vt, in.VddV, t)
		next := thK + m.rth[in.Index]*(pdyn+psta)
		if math.Abs(next-t) < m.params.TolK {
			return SubsystemState{TK: next, PdynW: pdyn, PstaW: psta, VtV: vt, Converged: true}
		}
		vt2 := m.vp.VtAt(in.Vt0Eff, next, in.VddV, in.VbbV)
		psta2 := mult * m.pw.Psta(in.Index, vt2, in.VddV, next)
		next2 := thK + m.rth[in.Index]*(pdyn+psta2)
		if math.Abs(next2-next) < m.params.TolK {
			return SubsystemState{TK: next2, PdynW: pdyn, PstaW: psta2, VtV: vt2, Converged: true}
		}
		denom := (next2 - next) - (next - t)
		if acc := t - (next-t)*(next-t)/denom; denom != 0 && acc > 0 && acc < 500 {
			t = acc
		} else {
			t = next2
		}
		if t > 500 {
			break
		}
	}
	return SubsystemState{TK: t, PdynW: pdyn, PstaW: psta, VtV: vt, Converged: false}
}

// Solver runs CoreSteady solves with reusable scratch and cross-call warm
// starts. Successive solves in an adaptation loop move the operating point
// only slightly, so starting the heat-sink feedback and each subsystem's
// device temperature from the previous converged state, plus Aitken Δ²
// acceleration of the inner contraction, cuts the nested fixed-point work
// by an order of magnitude while certifying the same TolK residuals.
//
// # Ownership
//
// A Solver owns mutable scratch (the subsystem iterate buffer and the
// warm-start temperatures) and must be driven by one goroutine at a time;
// the Model underneath is immutable and shared freely. Returned CoreStates
// are copied out of the scratch and safe to retain. The zero warm state is
// the reference cold start, so a fresh Solver's first solve differs from
// Model.CoreSteady only by acceleration.
type Solver struct {
	m *Model

	// DisableAcceleration switches the solver to the reference slow path:
	// cold starts and the original undamped inner loop, byte-identical to
	// Model.CoreSteady. The equivalence tests check the fast path against
	// it, like adapt's DisablePruning.
	DisableAcceleration bool

	// Obs, when non-nil, receives a "thermal.iter" histogram of outer
	// fixed-point iteration counts (recorded as unitless durations) and a
	// "thermal.nonconverged" counter of solves that exhausted MaxIter or
	// hit runaway — visible in -metrics instead of only an error string.
	Obs *obs.Registry

	subs   []SubsystemState // current outer iterate (scratch)
	startT []float64        // previous converged device temperatures
	warmTH float64          // previous converged heat-sink temperature
	warm   bool
}

// NewSolver returns a cold solver over m.
func NewSolver(m *Model) *Solver { return &Solver{m: m} }

// CoreSteady solves the core steady state like Model.CoreSteady, reusing
// the solver's scratch and (unless DisableAcceleration) warm-starting from
// the previous converged solve.
func (s *Solver) CoreSteady(ins []SubsystemInput, fRel float64) (CoreState, error) {
	m := s.m
	if len(s.subs) != len(ins) {
		s.subs = make([]SubsystemState, len(ins))
		s.startT = make([]float64, len(ins))
		s.warm = false
	}
	accel := !s.DisableAcceleration
	warm := accel && s.warm
	th := m.params.THBaseK
	if warm {
		th = s.warmTH
	}
	subs := s.subs
	var st CoreState
	for outer := 0; outer < m.params.MaxIter; outer++ {
		total := m.pw.Uncore(fRel, th)
		uncore := total
		for i := range ins {
			switch {
			case !accel:
				subs[i] = m.SubsystemSteady(ins[i], th)
			case outer > 0:
				subs[i] = m.subsystemSteady(ins[i], th, subs[i].TK) // previous outer iterate
			case warm:
				subs[i] = m.subsystemSteady(ins[i], th, s.startT[i])
			default:
				subs[i] = m.subsystemSteady(ins[i], th, th)
			}
			total += subs[i].PowerW()
		}
		nextTH := m.params.THBaseK + m.params.RthHSKPerW*total
		st = CoreState{THK: nextTH, Subs: subs, UncoreW: uncore, TotalW: total}
		if math.Abs(nextTH-th) < m.params.TolK {
			for i := range subs {
				if !subs[i].Converged {
					return s.seal(st, outer+1, fmt.Errorf("thermal: subsystem %d did not converge", i))
				}
			}
			return s.seal(st, outer+1, nil)
		}
		th = 0.5*th + 0.5*nextTH
		if th > 500 {
			return s.seal(st, outer+1, fmt.Errorf("thermal: heat-sink runaway (TH = %.0f K)", th))
		}
	}
	return s.seal(st, m.params.MaxIter, fmt.Errorf("thermal: core fixed point did not converge"))
}

// seal copies the scratch iterate into a caller-owned CoreState, records
// the solve in the metrics registry, and updates the warm-start state — a
// failed solve invalidates it so the next call cold-starts.
func (s *Solver) seal(st CoreState, iters int, err error) (CoreState, error) {
	out := make([]SubsystemState, len(st.Subs))
	copy(out, st.Subs)
	st.Subs = out
	if err == nil {
		s.warmTH = st.THK
		for i := range out {
			s.startT[i] = out[i].TK
		}
		s.warm = true
	} else {
		s.warm = false
		s.Obs.Counter("thermal.nonconverged").Inc()
	}
	s.Obs.Timer("thermal.iter").Observe(time.Duration(iters))
	return st, err
}
