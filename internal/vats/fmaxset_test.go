package vats

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// fuzzCurve builds a synthetic n-cell curve from seed: a dominant cell with
// mean delay in [0.3, 4] and sigma in [0.003, 0.3] nominal periods (the
// range the stage models produce across corners and variants) and the
// other cells spread around it. shape&1 makes every cell identical;
// shape&2 gives every other cell a z-score within 1 of the zSkip cut where
// the dominant cell's tail term is significant; shape&4 widens sigma to
// [0.3, 30], curves flat enough that the band where no probe can certify
// spans many bisection steps.
func fuzzCurve(seed int64, n int, paths float64, shape uint8) *Curve {
	rng := rand.New(rand.NewSource(seed))
	cv := &Curve{m: make([]float64, n), sig: make([]float64, n), paths: paths}
	m0 := 0.3 + 3.7*rng.Float64()
	s0 := 0.003 * math.Pow(100, rng.Float64())
	if shape&4 != 0 {
		s0 *= 100
	}
	for i := range cv.m {
		m, s := m0, s0
		switch {
		case shape&1 != 0:
		case shape&2 != 0 && i%2 == 1:
			s = s0 * (0.02 + 0.5*rng.Float64())
			m = m0 + 6*s0 - (zSkip+2*rng.Float64()-1)*s
		case i > 0:
			m = m0 * (1 - 0.15*rng.Float64())
			s = s0 * math.Pow(4, rng.Float64()-0.5)
		}
		cv.m[i], cv.sig[i] = m, s
	}
	return cv
}

// fuzzBudgets draws count budgets for cv: log-uniform in [1e-14, 1], with
// duplicates, budgets beyond both bracket clamps, and budgets equal to the
// curve's mean at one of FMaxForPE's midpoints (where no probe can
// certify the decision).
func fuzzBudgets(rng *rand.Rand, cv *Curve, count int) []float64 {
	budgets := make([]float64, count)
	for j := range budgets {
		switch r := rng.Intn(8); {
		case r == 0 && j > 0:
			budgets[j] = budgets[rng.Intn(j)]
		case r == 1:
			budgets[j] = cv.PE(fmaxHiF) * (1 + rng.Float64())
		case r == 2:
			budgets[j] = cv.PE(fmaxLoF) * rng.Float64()
		case r == 3:
			budgets[j] = cv.PE(cv.FMaxForPE(math.Pow(10, -12*rng.Float64())))
		default:
			budgets[j] = math.Pow(10, -14*rng.Float64())
		}
	}
	return budgets
}

// FuzzFMaxForPESetVsReference: the certified-bracket kernel must return,
// for every budget, exactly the float64 the plain bisection returns.
// cells maps to 1..256 cells and paths to [1, 4096], both sides of the
// saturation shortcut's paths >= 4.
func FuzzFMaxForPESetVsReference(f *testing.F) {
	f.Add(int64(1), uint8(47), 2048.0, uint8(0), uint8(7))
	f.Add(int64(2), uint8(5), 3.0, uint8(0), uint8(3))
	f.Add(int64(3), uint8(63), 256.0, uint8(1), uint8(7))
	f.Add(int64(4), uint8(255), 1024.0, uint8(2), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, cells uint8, paths float64, shape, nb uint8) {
		if math.IsNaN(paths) || math.IsInf(paths, 0) {
			paths = 2048
		}
		paths = 1 + math.Mod(math.Abs(paths), 4095)
		cv := fuzzCurve(seed, 1+int(cells), paths, shape)
		budgets := fuzzBudgets(rand.New(rand.NewSource(^seed)), cv, 1+int(nb%8))
		out := make([]float64, len(budgets))
		cv.FMaxForPESet(budgets, out)
		for j, b := range budgets {
			if want := cv.FMaxForPE(b); math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("n=%d paths=%v shape=%d budget[%d]=%g: set %v != reference %v",
					len(cv.m), paths, shape, j, b, out[j], want)
			}
		}
	})
}

// erfcRef returns erfc(x) to well beyond float64 precision: the Taylor
// series of erf below |x| = 3 and Laplace's continued fraction above.
func erfcRef(x float64) *big.Float {
	const prec = 256
	newf := func() *big.Float { return new(big.Float).SetPrec(prec) }
	pi, _ := newf().SetString("3.14159265358979323846264338327950288419716939937510582097494459230781640628620899862803482534211706798")
	sqrtPi := newf().Sqrt(pi)
	ax := math.Abs(x)
	bx := newf().SetFloat64(ax)
	x2 := newf().Mul(bx, bx)
	one := newf().SetInt64(1)
	var erfcAbs *big.Float // erfc(|x|)
	if ax < 3 {
		// erf(x) = 2/√π Σ (-1)^k x^(2k+1) / (k! (2k+1))
		sum, term := newf(), newf().Set(bx)
		for k := 0; k < 400; k++ {
			sum.Add(sum, newf().Quo(term, newf().SetInt64(int64(2*k+1))))
			term.Mul(term, x2)
			term.Quo(term, newf().SetInt64(int64(k+1)))
			term.Neg(term)
		}
		sum.Mul(sum, newf().SetInt64(2))
		sum.Quo(sum, sqrtPi)
		erfcAbs = newf().Sub(one, sum)
	} else {
		// erfc(x) = exp(-x²)/√π / (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))
		cf := newf().Set(bx)
		for k := 400; k >= 1; k-- {
			cf.Add(bx, newf().Quo(newf().SetFloat64(float64(k)/2), cf))
		}
		// exp(-x²) as exp(-x²/1024)^1024, the inner exp by its series.
		w := newf().Quo(x2, newf().SetInt64(1024))
		e, term := newf().Set(one), newf().Set(one)
		for k := 1; k < 80; k++ {
			term.Mul(term, w)
			term.Quo(term, newf().SetInt64(int64(k)))
			term.Neg(term)
			e.Add(e, term)
		}
		for i := 0; i < 10; i++ {
			e.Mul(e, e)
		}
		erfcAbs = e.Quo(e, sqrtPi)
		erfcAbs.Quo(erfcAbs, cf)
	}
	if x < 0 {
		return newf().Sub(newf().SetInt64(2), erfcAbs)
	}
	return erfcAbs
}

// TestErfcRelErrBound checks the Erfc error bound certMargin's derivation
// states: relative error at most erfcRelErr wherever the result is a
// normal float64, and absolute error below 2^-1070 where it is subnormal
// or zero. The sample covers every branch of the library implementation
// and the whole argument range PE terms reach (z/√2 with z < zSkip).
func TestErfcRelErrBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := []float64{-6.5, -1, -0.84375, 0, 0x1p-30, 0.25, 0.84375, 1.25, 1 / 0.35, 6, 26.5, 26.6, 27.3, 27.6}
	for i := 0; i < 300; i++ {
		xs = append(xs, -7+35*rng.Float64())
	}
	worst := 0.0
	for _, x := range xs {
		got := math.Erfc(x)
		ref := erfcRef(x)
		diff := new(big.Float).Sub(new(big.Float).SetFloat64(got), ref)
		diff.Abs(diff)
		if got < 0x1p-1022 {
			if d, _ := diff.Float64(); d >= 0x1p-1070 {
				t.Errorf("Erfc(%v) = %g: absolute error %g >= 2^-1070", x, got, d)
			}
			continue
		}
		rel, _ := new(big.Float).Quo(diff, ref).Float64()
		worst = max(worst, rel)
		if rel > erfcRelErr {
			t.Errorf("Erfc(%v) = %g: relative error %g > erfcRelErr %g", x, got, rel, erfcRelErr)
		}
	}
	t.Logf("worst relative error %.3g (%.2f ulp), bound %.3g", worst, worst/0x1p-53, erfcRelErr)
}
