// Package vats implements the variation-induced timing-error model the
// paper adopts from Sarangi et al. (§2.2, "VATS"): every pipeline stage has
// a dynamic distribution of exercised path delays; clocking the stage with
// a period shorter than its slowest path produces timing errors with a
// probability given by the distribution's upper tail; and an n-stage
// pipeline is a series failure system whose per-instruction error rate is
// the activity-weighted sum of the per-stage rates (Eq. 4).
//
// Path delays respond to the operating point: supply voltage, body bias,
// and temperature move every gate's delay via the alpha-power law, so the
// curves tilt, shift, and reshape exactly as the EVAL framework describes.
//
// All frequencies in this package are relative to the no-variation nominal
// design frequency (fRel = f/fnom, e.g. 4 GHz = 1.0); all delays are in
// units of the nominal clock period.
package vats

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/mathx"
	"repro/internal/varius"
)

// tailZ is the z-score of the representative tail device at which the
// random component's delay sensitivity is linearized (see Stage.Eval).
const tailZ = 4.0

// PEZero is the per-access error probability below which a stage is
// considered error-free: the Baseline environment of Table 1 must run with
// no errors at all, which we operationalize as "fewer than one error per
// ~10^12 accesses".
const PEZero = 1e-12

// StageParams describes the static (design-time) path-delay distribution of
// a stage of a given kind, before variation is applied. The distribution is
// normal with standard deviation SigmaL (in units of the nominal period);
// its mean is *derived* so that the no-variation design meets timing at
// exactly fRel = 1.0 at the design corner (TMAX), i.e. the design's
// critical path equals the nominal period by construction.
type StageParams struct {
	// SigmaL is the spread of the static path-delay distribution. Memory
	// structures have homogeneous, near-wall paths (small sigma); logic
	// has a wide variety of path lengths (large sigma); mixed falls in
	// between (§6.1).
	SigmaL float64
	// PathsPerAccess is the number of near-critical paths whose delays are
	// (approximately independently) sampled by one access; an access fails
	// if any of them exceeds the clock period.
	PathsPerAccess float64
	// RandomSigmaMult amplifies the per-transistor random Vt component for
	// this kind of circuit. SRAM arrays use minimum-size cells, whose
	// random-dopant-fluctuation sigma is several times that of logic
	// transistors — this is what makes memory stages the frequency
	// limiters under variation.
	RandomSigmaMult float64
	// DriveDerateV reduces the effective gate overdrive of the kind's
	// switching devices (V). SRAM cell reads run at well below full
	// overdrive, which makes memory delay disproportionately sensitive to
	// Vdd and Vt — the physics behind ASV's strong effect on caches and
	// register files.
	DriveDerateV float64
}

// DefaultStageParams returns the calibrated per-kind stage parameters.
func DefaultStageParams(k floorplan.Kind) StageParams {
	switch k {
	case floorplan.Memory:
		return StageParams{SigmaL: 0.015, PathsPerAccess: 2048, RandomSigmaMult: 2.6, DriveDerateV: 0.45}
	case floorplan.Mixed:
		return StageParams{SigmaL: 0.045, PathsPerAccess: 512, RandomSigmaMult: 4.2, DriveDerateV: 0.12}
	default: // Logic
		return StageParams{SigmaL: 0.08, PathsPerAccess: 256, RandomSigmaMult: 1.0}
	}
}

// StageParamsFor returns the stage parameters for a specific subsystem.
// Functional units override the generic logic profile: as §3.3.1 explains,
// design tools leave FUs with *many near-critical paths* — a critical-path
// wall — because non-critical paths are only optimized until they are
// "short enough". That wall (smaller spread, more paths near the edge) is
// exactly what the LowSlope replica attacks.
func StageParamsFor(sub floorplan.Subsystem) StageParams {
	sp := DefaultStageParams(sub.Kind)
	if sub.ID == floorplan.IntALU || sub.ID == floorplan.FPUnit {
		sp.SigmaL = 0.034
		sp.PathsPerAccess = 1024
		sp.RandomSigmaMult = 1.2
	}
	return sp
}

// zZero returns the tail z-score at which a single access of a stage with
// n near-critical paths reaches PEZero.
func (sp StageParams) zZero() float64 {
	return mathx.NormalQuantile(1 - PEZero/sp.PathsPerAccess)
}

// meanL derives the static distribution mean from the design-closure
// condition: at the design corner the no-variation critical path
// (mean + zZero*SigmaL) equals the nominal period 1.0.
func (sp StageParams) meanL() float64 {
	return 1 - sp.zZero()*sp.SigmaL
}

// Cond is a stage's operating condition: supply voltage, body bias, and
// temperature. The adaptation layer chooses Vdd/Vbb per subsystem (ASV and
// ABB domains) and the thermal model supplies T.
type Cond struct {
	VddV float64 // supply voltage (V)
	VbbV float64 // body bias (V); positive = forward bias (lower Vt)
	TK   float64 // device temperature (K)
}

// Variant modifies a stage's path-delay distribution to model the
// microarchitectural error-mitigation techniques of §3.3.
type Variant struct {
	// MeanScale multiplies the static distribution mean. Shift techniques
	// (issue-queue downsizing: shorter bitlines) use MeanScale < 1 with
	// PreserveWall = false so the whole curve moves left; tilt techniques
	// (LowSlope FU replicas) use MeanScale < 1 with PreserveWall = true.
	MeanScale float64
	// SigmaScale multiplies the static sigma (ignored when PreserveWall).
	SigmaScale float64
	// PreserveWall keeps the design's critical path (the PE-curve
	// intercept fvar) fixed while the mean drops, which widens the
	// distribution and flattens the PE-vs-f slope — the paper's Tilt class
	// (Figure 2(b)): optimizing near-critical paths cannot speed up the
	// slowest path itself.
	PreserveWall bool
}

// IdentityVariant leaves the distribution unchanged.
func IdentityVariant() Variant { return Variant{MeanScale: 1, SigmaScale: 1} }

// ShiftVariant scales all paths by s (< 1 speeds the stage up, moving the
// whole PE curve right — the paper's Shift class, Figure 2(c)).
func ShiftVariant(s float64) Variant { return Variant{MeanScale: s, SigmaScale: s} }

// TiltVariant lowers the mean path delay to meanScale of its design value
// while preserving the critical-path wall (the paper's Tilt class,
// Figure 2(b): the LowSlope FU replica whose near-critical paths are
// optimized, with mean path delay reduced ~25% and a wider spread).
func TiltVariant(meanScale float64) Variant {
	return Variant{MeanScale: meanScale, SigmaScale: 1, PreserveWall: true}
}

// Stage models one pipeline stage / subsystem under a chip's variation map.
type Stage struct {
	Sub   floorplan.Subsystem
	sp    StageParams
	vp    varius.Params
	noVar bool
	// Per-cell systematic components over the subsystem's floorplan
	// rectangle.
	vt0  []float64 // tester-referred Vt0 per cell (V)
	leff []float64 // relative Leff per cell
	// Random per-transistor sigmas (already kind-amplified for Vt).
	vtSigRan   float64
	leffSigRan float64
}

// NewStage builds the timing model of one subsystem on one chip.
func NewStage(sub floorplan.Subsystem, chip *varius.ChipMaps, p varius.Params) (*Stage, error) {
	sp := StageParamsFor(sub)
	vt0 := chip.VtRegion(sub.Rect)
	leff := chip.LeffRegion(sub.Rect)
	if len(vt0) == 0 || len(leff) == 0 {
		return nil, fmt.Errorf("vats: subsystem %v has no variation cells", sub.ID)
	}
	// The two fields can disagree on cell count only if the rectangles
	// degenerate differently; both come from the same grid, so equality is
	// an invariant worth checking.
	if len(vt0) != len(leff) {
		return nil, fmt.Errorf("vats: subsystem %v: %d Vt cells vs %d Leff cells",
			sub.ID, len(vt0), len(leff))
	}
	return &Stage{
		Sub:        sub,
		sp:         sp,
		vp:         p,
		noVar:      chip.NoVariation,
		vt0:        vt0,
		leff:       leff,
		vtSigRan:   chip.VtSigmaRan * sp.RandomSigmaMult,
		leffSigRan: chip.LeffSigmaRan,
	}, nil
}

// Params returns the stage's static distribution parameters.
func (s *Stage) Params() StageParams { return s.sp }

// VariusParams returns the device-physics parameters the stage was built
// with.
func (s *Stage) VariusParams() varius.Params { return s.vp }

// Curve is a stage's dynamic path-delay distribution frozen at one
// operating condition and variant: a mixture over the subsystem's grid
// cells of normal path-delay distributions. It supports cheap repeated
// PE(f) queries, which the adaptation layer's searches rely on.
type Curve struct {
	m, sig []float64 // per-cell mean and sigma of path delay (nominal periods)
	paths  float64
	zzero  float64
}

// Eval freezes the stage's path-delay distribution at condition c with
// variant v.
func (s *Stage) Eval(c Cond, v Variant) *Curve {
	return s.EvalInto(c, v, nil)
}

// EvalInto is Eval writing into cv's backing arrays (allocating only when
// their capacity is too small), for callers that freeze many curves in a
// loop — the dense PE-table builder freezes one curve per (Vdd, Vbb,
// temperature) column build and reuses one scratch Curve. A nil cv
// allocates a fresh curve. The per-condition delay constants (the
// alpha-power normalization and mobility term) are hoisted out of the
// per-cell loop via varius.DelayNorm; every per-cell value is
// bit-identical to the unhoisted form.
func (s *Stage) EvalInto(c Cond, v Variant, cv *Curve) *Curve {
	sp := s.sp
	meanL := sp.meanL() * v.MeanScale
	sigL := sp.SigmaL * v.SigmaScale
	if v.PreserveWall {
		// Keep meanL_design + z0*sigL_design == meanL + z0*sig' fixed.
		sigL = sp.SigmaL + (1-v.MeanScale)*sp.meanL()/sp.zZero()
	}
	n := len(s.vt0)
	if cv == nil {
		cv = new(Curve)
	}
	if cap(cv.m) < n {
		cv.m = make([]float64, n)
	} else {
		cv.m = cv.m[:n]
	}
	if cap(cv.sig) < n {
		cv.sig = make([]float64, n)
	} else {
		cv.sig = cv.sig[:n]
	}
	cv.paths = sp.PathsPerAccess
	cv.zzero = sp.zZero()
	dn := s.vp.DelayNormAt(c.VddV, c.TK, sp.DriveDerateV)
	// Relative random path-delay sigma: per-gate random Vt and Leff
	// components average over the path depth.
	depth := math.Sqrt(float64(s.Sub.PathDepth))
	tz := tailZ * s.vtSigRan
	dLeff := s.leffSigRan / depth
	for i := 0; i < n; i++ {
		vt := s.vp.VtAt(s.vt0[i], c.TK, c.VddV, c.VbbV)
		g := dn.RelGateDelay(vt, s.leff[i])
		var sigRanRel float64
		if !s.noVar {
			// The delay sensitivity to random Vt variation is evaluated at
			// a representative upper-tail device (tailZ sigmas above the
			// cell's systematic Vt): those slow devices have much less gate
			// overdrive, so they widen the distribution more than a
			// linearization at the mean would show — and they respond much
			// more strongly to a supply boost, which is why ASV is so
			// effective on SRAM structures.
			drive := c.VddV - vt - sp.DriveDerateV - tz
			if drive < 0.05 {
				drive = 0.05
			}
			dVt := s.vp.AlphaPower / drive * s.vtSigRan / depth
			sigRanRel = math.Hypot(dVt, dLeff)
		}
		cv.m[i] = g * meanL
		cv.sig[i] = g * math.Hypot(sigL, meanL*sigRanRel)
	}
	return cv
}

// PE returns the stage's per-access error probability at relative
// frequency fRel (available time tau = 1/fRel nominal periods).
func (cv *Curve) PE(fRel float64) float64 {
	if fRel <= 0 {
		return 0
	}
	tau := 1 / fRel
	sum := 0.0
	for i := range cv.m {
		z := (tau - cv.m[i]) / cv.sig[i]
		p := cv.paths * mathx.NormalTailProb(z)
		if p > 1 {
			p = 1
		}
		sum += p
	}
	return sum / float64(len(cv.m))
}

// peExceeds reports whether PE(fRel) > budget, bailing out as soon as the
// partial mean already exceeds the budget. The early exit is exact: every
// term is nonnegative, so the rounded partial sums are monotone
// non-decreasing, and float division by the positive cell count preserves
// that order — once a partial mean exceeds budget the full mean must too.
// The fall-through compares the identical full-sum expression PE uses, so
// the decision is bit-for-bit the same as PE(fRel) > budget.
func (cv *Curve) peExceeds(fRel, budget float64) bool {
	if fRel <= 0 {
		return 0 > budget
	}
	tau := 1 / fRel
	n := float64(len(cv.m))
	sum := 0.0
	for i := range cv.m {
		z := (tau - cv.m[i]) / cv.sig[i]
		p := cv.paths * mathx.NormalTailProb(z)
		if p > 1 {
			p = 1
		}
		sum += p
		if i&31 == 31 && sum/n > budget {
			return true
		}
	}
	return sum/n > budget
}

// FMaxForPE returns the highest relative frequency at which the stage's
// per-access error probability stays at or below budget, by bisection of
// [fmaxLoF, fmaxHiF]. Comparisons go through peExceeds, which
// short-circuits the per-cell scan once the budget is provably blown but
// takes the exact same branch PE-then-compare would. It is the reference
// definition: FMaxForPESet, which FVar and the dense PE tables go
// through, returns exactly its float64; the tests and adapt's reference
// table builder (buildTable) call it directly.
func (cv *Curve) FMaxForPE(budget float64) float64 {
	if !cv.peExceeds(fmaxHiF, budget) {
		return fmaxHiF
	}
	if cv.peExceeds(fmaxLoF, budget) {
		return fmaxLoF
	}
	lo, hi := fmaxLoF, fmaxHiF // invariant: PE(lo) <= budget < PE(hi)
	for i := 0; i < fmaxSteps; i++ {
		mid := 0.5 * (lo + hi)
		if !cv.peExceeds(mid, budget) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// FVar returns the stage's error-free frequency (the PE-curve intercept):
// the highest relative frequency with PE <= PEZero, FMaxForPE(PEZero) bit
// for bit, computed through the certified-bracket kernel FMaxForPESet.
func (cv *Curve) FVar() float64 {
	budget, out := [1]float64{PEZero}, [1]float64{}
	cv.FMaxForPESet(budget[:], out[:])
	return out[0]
}

// zSkip is a z-score beyond which mathx.NormalTailProb is exactly +0.0 in
// float64: NormalTailProb(z) = 0.5*Erfc(z/sqrt2), and for x = z/sqrt2 >=
// 27.5 the library Erfc underflows to exactly zero (its asymptotic branch
// evaluates Exp(-x*x-0.5625)*..., and -x*x-0.5625 < -756 is far below
// Exp's underflow threshold of about -745.2; from x >= 28 it returns 0
// outright). TestTailShortcutsExact pins the property.
const zSkip = 39.0

// peTermSum returns the un-normalized sum of capped per-cell error
// probabilities at available time tau = 1/fRel — exactly the accumulation
// PE and peExceeds perform, term for term — with two saturation shortcuts
// that skip the Erfc call without changing a bit of the sum: a term with
// z >= zSkip contributes exactly +0.0, and (when the path count is large
// enough that paths*NormalTailProb(0) > 1 with margin) a term with z <= 0
// caps at exactly 1.0.
func (cv *Curve) peTermSum(tau float64) float64 {
	satOK := cv.paths >= 4
	sum := 0.0
	for i := range cv.m {
		z := (tau - cv.m[i]) / cv.sig[i]
		if z >= zSkip {
			continue
		}
		if satOK && z <= 0 {
			sum += 1
			continue
		}
		p := cv.paths * mathx.NormalTailProb(z)
		if p > 1 {
			p = 1
		}
		sum += p
	}
	return sum
}

// peExceedsTau is peExceeds's exact decision at tau = 1/fRel, with the
// saturation shortcuts of peTermSum and the early-exit check applied
// after every cell rather than every 32. Both changes preserve the
// decision bit for bit: the partial means are monotone, so checking more
// often can only exit earlier with the same answer, and the final
// comparison is the identical full-sum expression.
func (cv *Curve) peExceedsTau(tau, budget float64) bool {
	satOK := cv.paths >= 4
	n := float64(len(cv.m))
	sum := 0.0
	for i := range cv.m {
		z := (tau - cv.m[i]) / cv.sig[i]
		if z >= zSkip {
			continue
		}
		if satOK && z <= 0 {
			sum += 1
		} else {
			p := cv.paths * mathx.NormalTailProb(z)
			if p > 1 {
				p = 1
			}
			sum += p
		}
		if sum/n > budget {
			return true
		}
	}
	return sum/n > budget
}

// Wall returns the slowest effective critical-path delay (in nominal
// periods) across the stage's cells, i.e. 1/FVar up to tail-model detail.
func (cv *Curve) Wall() float64 {
	w := 0.0
	for i := range cv.m {
		if v := cv.m[i] + cv.zzero*cv.sig[i]; v > w {
			w = v
		}
	}
	return w
}

// Pipeline composes stages into the series failure system of Eq. 4.
type Pipeline struct {
	Stages []*Stage
}

// NewPipeline builds the pipeline model for a whole core on one chip.
func NewPipeline(fp *floorplan.Floorplan, chip *varius.ChipMaps, p varius.Params) (*Pipeline, error) {
	stages := make([]*Stage, 0, fp.N())
	for _, sub := range fp.Subsystems {
		st, err := NewStage(sub, chip, p)
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
	}
	return &Pipeline{Stages: stages}, nil
}

// Stage returns the stage for a subsystem ID.
func (pl *Pipeline) Stage(id floorplan.ID) (*Stage, error) {
	for _, s := range pl.Stages {
		if s.Sub.ID == id {
			return s, nil
		}
	}
	return nil, fmt.Errorf("vats: pipeline has no stage %v", id)
}

// PE evaluates Eq. 4: the processor's per-instruction error rate at
// relative frequency fRel, given each stage's frozen curve and activity
// factor rho (accesses per instruction). curves and rhos are indexed like
// Stages.
func (pl *Pipeline) PE(curves []*Curve, rhos []float64, fRel float64) float64 {
	sum := 0.0
	for i := range curves {
		sum += rhos[i] * curves[i].PE(fRel)
	}
	return sum
}

// SamplePoint is one (f, PE) sample of a curve, for figure generation.
type SamplePoint struct {
	FRel float64
	PE   float64
}

// SampleCurve evaluates PE over [fLo, fHi] at n evenly spaced points.
func SampleCurve(cv *Curve, fLo, fHi float64, n int) []SamplePoint {
	if n < 2 {
		n = 2
	}
	out := make([]SamplePoint, n)
	for i := 0; i < n; i++ {
		f := fLo + (fHi-fLo)*float64(i)/float64(n-1)
		out[i] = SamplePoint{FRel: f, PE: cv.PE(f)}
	}
	return out
}
