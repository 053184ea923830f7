package vats

import (
	"math"

	"repro/internal/mathx"
)

// fmaxLoF and fmaxHiF bracket every FMaxForPE search: the range covers all
// frequencies the adaptation layer ever considers.
const fmaxLoF, fmaxHiF = 0.2, 3.0

// fmaxSteps is the number of bisection steps FMaxForPE takes, and
// fmaxStep the width of its final interval.
const (
	fmaxSteps = 48
	fmaxStep  = (fmaxHiF - fmaxLoF) / (1 << fmaxSteps)
)

// erfcRelErr bounds the relative error of math.Erfc against the exact
// erfc at the same float64 argument, wherever the result is a normal
// float64 (arguments below about 26.5). The library evaluates rational
// approximations accurate to about 2^-57 and, in the tail, two Exp calls
// whose product carries a few roundings, so its error is a few ulps
// (2^-53 each). The bound is set at 128 ulps; TestErfcRelErrBound checks
// it against a 256-bit reference, whose worst case on its sample is under
// 4 ulps.
const erfcRelErr = 0x1p-46

// certMargin returns δ(n): a probe at tau_c whose computed mean PE clears a
// budget b by the relative margin 1+δ(n) fixes the exceeds decision at
// every tau on its side of tau_c (see FMaxForPESet). With u = 2^-53, the
// unit roundoff, and e = erfcRelErr, the bound follows peTermSum's float64
// evaluation of the mean over n cells:
//
//   - A cell's term is min(1, paths·Q(x)) at the computed argument
//     x = ((tau-m)/sig)/√2, with Q = erfc/2. Each rounding in x is
//     monotone, so x is non-decreasing in tau and the exact term T(x) is
//     non-increasing in tau. The computed term is
//     min(1, fl(paths·Erfc(x)/2)): halving is exact, Erfc errs by at most
//     e and the multiply by paths by at most u, and the cap adds nothing,
//     so it is T·(1+θ) with |θ| ≤ t = e+u+eu. The saturation shortcuts
//     return exactly this value (TestTailShortcutsExact).
//   - The left-to-right sum of n nonnegative terms takes each term through
//     at most n−1 rounded additions: a factor 1+η with
//     |η| ≤ γ = (n−1)u/(1−(n−1)u).
//   - Dividing by n (exact as a float64) rounds once: 1+ε with |ε| ≤ u.
//
// So the computed mean lies in [L·M(tau), U·M(tau)], where M = ΣT/n is
// non-increasing in tau, U = (1+t)(1+γ)(1+u) and L = (1−t)(1−γ)(1−u). For
// tau ≤ tau_c this gives M̃(tau) ≥ L·M(tau_c) ≥ (L/U)·M̃(tau_c), and for
// tau ≥ tau_c, M̃(tau) ≤ (U/L)·M̃(tau_c): a mean above (U/L)·b exceeds b
// at every shorter tau, and a mean at most b·(L/U) stays within b at every
// longer one. For n ≤ 2^20, U/L ≤ 1 + 2e + 2(n+1)u + 2^-60 (the last
// term bounds every product of two errors), and
//
//	δ(n) = 2e + 2(n+3)u
//
// leaves 4u over: 2u for rounding the thresholds b·(1+δ) and b/(1+δ),
// and a slack of at least u. Where Erfc's result is subnormal or zero
// (including the zSkip shortcut) the relative bound does not hold, but
// the term's absolute error there is below (paths+1)·2^-1070, and the
// slack absorbs it for every budget b ≥ (paths+1)·2^-1000. FMaxForPESet
// certifies only such budgets, on curves with at most 2^20 cells.
func certMargin(n int) float64 {
	const u = 0x1p-53
	return 2*erfcRelErr + 2*float64(n+3)*u
}

// peBracket is one budget's search state in FMaxForPESet. Taus are in
// nominal periods (tau = 1/fRel); h is ln(mean/b).
type peBracket struct {
	j        int     // index into budgets and out
	b, lnb   float64 // the budget and its logarithm
	hiT, loT float64 // certification thresholds b·(1+δ) and b/(1+δ)
	// Certified bracket: the computed mean exceeds b at every tau <= A and
	// stays within b at every tau >= B.
	A, B float64
	// Sign bracket: the closest probes with mean > b (a) and mean <= b (c).
	a, ha, c, hc float64
	// The budget's own last two probes, for the secant.
	x0, h0, x1, h1 float64
	slope          float64 // the last negative secant slope dh/dtau
	probes         int
}

// add records a probe at tau with computed mean m (lm = ln m).
func (s *peBracket) add(tau, m, lm float64) {
	if m > s.b {
		if tau > s.a {
			s.a, s.ha = tau, lm-s.lnb
		}
		if m > s.hiT && tau > s.A {
			s.A = tau
		}
		return
	}
	if tau < s.c {
		s.c, s.hc = tau, lm-s.lnb
	}
	if m <= s.loT && tau < s.B {
		s.B = tau
	}
}

// secantRoot returns the root of the line through (x0, h0) and (x1, h1),
// NaN or ±Inf when the points do not define one.
func secantRoot(x0, h0, x1, h1 float64) float64 {
	return x1 - h1*(x1-x0)/(h1-h0)
}

// next proposes the budget's next probe: the closed-form seeds first,
// then a secant step through its last two probes, kept strictly inside the
// sign bracket (false position on the bracket, else its midpoint). The
// step is pushed by bias toward the side of the certified bracket that is
// still wider, so that once the secant has converged its probes land just
// outside the uncertain band, alternating sides, and close the bracket.
func (s *peBracket) next(cv *Curve, bias float64) float64 {
	var x float64
	switch s.probes {
	case 0:
		x = cv.tauWhereTermIs(s.b)
	case 1:
		x = cv.tauWhereTermIs(float64(len(cv.m)) * s.b)
	default:
		x = secantRoot(s.x0, s.h0, s.x1, s.h1)
	}
	if !(x > s.a && x < s.c) {
		x = secantRoot(s.a, s.ha, s.c, s.hc)
	}
	if !(x > s.a && x < s.c) {
		x = 0.5 * (s.a + s.c)
	}
	if x-s.A > s.B-x {
		return x - bias
	}
	return x + bias
}

// tauWhereTermIs returns the largest tau at which some cell's exact term
// paths·Q((tau-m)/sig) equals c, or NaN when no term can reach c. At that
// tau every cell's term is at most c, so the mean is at most c; with
// c = b it bounds the budget's threshold from above, with c = n·b (where
// one cell alone carries the mean to b) from below.
func (cv *Curve) tauWhereTermIs(c float64) float64 {
	if !(c > 0 && c < 1 && c < cv.paths) {
		return math.NaN()
	}
	z := -mathx.NormalQuantile(c / cv.paths)
	t := math.Inf(-1)
	for i := range cv.m {
		t = max(t, cv.m[i]+cv.sig[i]*z)
	}
	return t
}

// FMaxForPESet computes FMaxForPE for every budget in budgets at once:
// out[j] receives exactly the float64 FMaxForPE(budgets[j]) returns, bit
// for bit. Budgets need not be sorted and may repeat.
//
// FMaxForPE bisects [0.2, 3.0] for 48 steps, and each step asks whether
// the computed mean PE at the midpoint exceeds the budget. This kernel
// replays those 48 steps midpoint for midpoint, but answers most of the
// questions without evaluating the curve there. It first locates each
// budget's threshold with a few full mean evaluations (peTermSum): a
// secant on ln(mean/b) in tau = 1/fRel, seeded by the closed-form
// single-cell bounds of tauWhereTermIs and safeguarded by the tightest
// sign bracket. Every evaluated point serves every pending budget of the
// call. A point certifies its side for budget b only when its mean clears
// b by the relative margin δ(n) of certMargin: a mean above b·(1+δ) proves
// the decision "exceeds" at every tau at or below the point's, and a mean
// at most b/(1+δ) proves "does not exceed" at every tau at or above it,
// because each cell's term is non-increasing in tau up to the rounding
// that δ(n) bounds. The replay then takes the certified decision for
// every midpoint outside the certified bracket and calls peExceedsTau,
// the exact early-exit decision, only for a midpoint strictly inside it.
func (cv *Curve) FMaxForPESet(budgets, out []float64) {
	if len(budgets) == 0 {
		return
	}
	n := float64(len(cv.m))
	tauHi, tauLo := 1/fmaxHiF, 1/fmaxLoF
	// Bracket checks, shared: one evaluation at each end serves all
	// budgets.
	meanHi := cv.peTermSum(tauHi) / n
	meanLo := -1.0 // only needed if some budget passes the fmaxHiF check
	var buf [8]peBracket
	brs := buf[:0]
	delta := certMargin(len(cv.m))
	for j, b := range budgets {
		if !(meanHi > b) {
			out[j] = fmaxHiF
			continue
		}
		if meanLo < 0 {
			meanLo = cv.peTermSum(tauLo) / n
		}
		if meanLo > b {
			out[j] = fmaxLoF
			continue
		}
		s := peBracket{
			j: j, b: b, lnb: math.Log(b),
			hiT: math.Inf(1), loT: math.Inf(-1),
			A: math.Inf(-1), B: math.Inf(1),
			a: math.Inf(-1), c: math.Inf(1), slope: math.Inf(-1),
		}
		if b >= (cv.paths+1)*0x1p-1000 && len(cv.m) <= 1<<20 {
			s.hiT, s.loT = b*(1+delta), b/(1+delta)
		}
		s.add(tauHi, meanHi, math.Log(meanHi))
		s.add(tauLo, meanLo, math.Log(meanLo))
		brs = append(brs, s)
	}
	for i := range brs {
		cv.locate(brs[i:], delta)
		out[brs[i].j] = cv.replayFMax(&brs[i])
	}
}

// locateProbes caps the full mean evaluations spent locating one budget's
// threshold; the secant typically needs five to seven.
const locateProbes = 12

// locate narrows brs[0]'s certified bracket with full mean evaluations,
// sharing every evaluated point with the budgets after it. It aims a
// quarter of the target width past each root estimate and stops once the
// certified bracket is that narrow: about one final bisection step, or
// four uncertain bands where the curve is flat. The replay resolves the
// few midpoints left inside the bracket directly.
func (cv *Curve) locate(brs []peBracket, delta float64) {
	s := &brs[0]
	if math.IsInf(s.hiT, 1) {
		return // nothing can certify this budget
	}
	n := float64(len(cv.m))
	for s.probes < locateProbes {
		bias := max(fmaxStep*s.c*s.c, 8*delta/math.Abs(s.slope)) / 4
		if s.B-s.A <= 4*bias {
			return
		}
		x := s.next(cv, bias)
		if !(x > s.A && x < s.B) {
			return
		}
		m := cv.peTermSum(x) / n
		lm := math.Log(m)
		for r := range brs {
			brs[r].add(x, m, lm)
		}
		h := lm - s.lnb
		if sl := (h - s.h1) / (x - s.x1); s.probes > 0 && sl < 0 {
			s.slope = sl
		}
		s.x0, s.h0, s.x1, s.h1 = s.x1, s.h1, x, h
		s.probes++
	}
}

// replayFMax replays FMaxForPE's bisection for s.b, taking each
// midpoint's decision from the certified bracket where it covers the
// midpoint and from peExceedsTau where it does not.
func (cv *Curve) replayFMax(s *peBracket) float64 {
	lo, hi := fmaxLoF, fmaxHiF
	for d := 0; d < fmaxSteps; d++ {
		mid := 0.5 * (lo + hi)
		tau := 1 / mid
		if tau <= s.A || tau < s.B && cv.peExceedsTau(tau, s.b) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}
