package vats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/mathx"
)

// batchCurves freezes a spread of curves — every subsystem kind, the three
// §3.3 variants, and operating conditions from cold/slow to hot/boosted —
// so the batched-evaluation equivalence checks sweep the same space the
// solvers do.
func batchCurves(t *testing.T) []*Curve {
	t.Helper()
	fp, gen := testFixtures(t)
	p := gen.Params()
	chip := gen.Chip(21)
	pl, err := NewPipeline(fp, chip, p)
	if err != nil {
		t.Fatal(err)
	}
	conds := []Cond{
		{VddV: 0.85, VbbV: -0.3, TK: p.TOpRefK + 20},
		{VddV: p.VddNomV, VbbV: 0, TK: p.TOpRefK},
		{VddV: 1.15, VbbV: 0.3, TK: p.TOpRefK - 25},
	}
	variants := []Variant{IdentityVariant(), ShiftVariant(0.94), TiltVariant(0.75)}
	var out []*Curve
	for _, st := range pl.Stages {
		for _, c := range conds {
			for _, v := range variants {
				out = append(out, st.Eval(c, v))
			}
		}
	}
	return out
}

// TestTailShortcutsExact pins the float64 facts the peTermSum saturation
// shortcuts rely on (see the zSkip comment): beyond zSkip the normal tail
// probability is exactly +0.0, and at or below z = 0 a stage with >= 4
// paths per access saturates its capped term at exactly 1.0.
func TestTailShortcutsExact(t *testing.T) {
	for _, z := range []float64{zSkip, zSkip + 1, 50, 1000} {
		if p := mathx.NormalTailProb(z); p != 0 || math.Signbit(p) {
			t.Errorf("NormalTailProb(%v) = %g, want exactly +0.0", z, p)
		}
	}
	// The skip threshold is not vacuous: slightly below it the tail is
	// still a positive subnormal, so the shortcut fires only where the
	// term truly underflows.
	if p := mathx.NormalTailProb(38.4); p <= 0 {
		t.Errorf("NormalTailProb(38.4) = %g, want > 0 (zSkip too small)", p)
	}
	for _, paths := range []float64{4, 256, 2048} {
		for _, z := range []float64{0, -0.5, -30} {
			p := paths * mathx.NormalTailProb(z)
			if !(p > 1) {
				t.Errorf("paths=%v z=%v: capped term %g does not saturate at 1", paths, z, p)
			}
		}
	}
}

// TestPETermSumMatchesPE: the shortcut accumulation must reproduce PE's
// rounded mean bit for bit at every probe frequency the bisections visit.
func TestPETermSumMatchesPE(t *testing.T) {
	for ci, cv := range batchCurves(t) {
		n := float64(len(cv.m))
		for f := 0.2; f <= 3.0; f += 0.037 {
			want := cv.PE(f)
			got := cv.peTermSum(1/f) / n
			if got != want {
				t.Fatalf("curve %d f=%v: peTermSum/n = %g != PE = %g", ci, f, got, want)
			}
		}
	}
}

// TestPEExceedsTauMatchesPEExceeds: the per-cell early-exit decision must
// agree with the reference stride-32 decision for budgets straddling the
// whole grid, including budgets exactly at the mean (the > boundary).
func TestPEExceedsTauMatchesPEExceeds(t *testing.T) {
	budgets := []float64{0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-2, 0.5, 1}
	for ci, cv := range batchCurves(t) {
		for f := 0.3; f <= 2.9; f += 0.113 {
			for _, b := range append(budgets, cv.PE(f)) {
				want := cv.peExceeds(f, b)
				got := cv.peExceedsTau(1/f, b)
				if got != want {
					t.Fatalf("curve %d f=%v budget=%g: peExceedsTau=%v, peExceeds=%v",
						ci, f, b, got, want)
				}
			}
		}
	}
}

// TestFMaxForPESetMatchesFMaxForPE: the certified-bracket kernel must be
// bit-identical to independent per-budget bisections, for full budget
// sets, singletons, duplicates, unsorted orders, and a budget equal to the
// curve's mean at one of the bisection's midpoints, which no probe can
// certify, so the replay must decide it with peExceedsTau. FVar, which
// goes through the kernel, must equal the bisection at PEZero.
func TestFMaxForPESetMatchesFMaxForPE(t *testing.T) {
	sets := [][]float64{
		{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}, // the dense-table grid
		{1e-4},                  // singleton
		{1e-2, 1e-9, 1e-6},      // unsorted
		{1e-6, 1e-6, 1e-12, 10}, // duplicates + both bracket clamps
	}
	for ci, cv := range batchCurves(t) {
		if got, want := cv.FVar(), cv.FMaxForPE(PEZero); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("curve %d: FVar %v != FMaxForPE(PEZero) %v", ci, got, want)
		}
		// FMaxForPE returns its last lower bound, a midpoint it visited.
		atMid := cv.PE(cv.FMaxForPE(1e-6))
		for si, budgets := range append(sets, []float64{atMid, 1e-6}) {
			out := make([]float64, len(budgets))
			cv.FMaxForPESet(budgets, out)
			for j, b := range budgets {
				if want := cv.FMaxForPE(b); out[j] != want {
					t.Fatalf("curve %d set %d budget %g: batched %v != reference %v",
						ci, si, b, out[j], want)
				}
			}
		}
	}
	// Empty set is a no-op.
	new(Curve).FMaxForPESet(nil, nil)
}

// TestFMaxForPESetRandomCurves sweeps the fuzz target's synthetic curves
// and budgets beyond its seed corpus.
func TestFMaxForPESetRandomCurves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		paths := []float64{1, 2.5, 4, 256, 2048}[i%5]
		cv := fuzzCurve(rng.Int63(), 1+rng.Intn(64), paths, uint8(i%8))
		budgets := fuzzBudgets(rng, cv, 1+rng.Intn(8))
		out := make([]float64, len(budgets))
		cv.FMaxForPESet(budgets, out)
		for j, b := range budgets {
			if want := cv.FMaxForPE(b); math.Float64bits(out[j]) != math.Float64bits(want) {
				t.Fatalf("curve %d (n=%d paths=%v) budget %g: set %v != reference %v",
					i, len(cv.m), paths, b, out[j], want)
			}
		}
	}
}

// TestEvalIntoReusesAndMatchesEval: EvalInto must reuse the scratch
// curve's arrays across calls and produce curves bitwise equal to Eval's.
func TestEvalIntoReusesAndMatchesEval(t *testing.T) {
	fp, gen := testFixtures(t)
	chip := gen.Chip(22)
	st, err := NewStage(fp.Subsystems[0], chip, gen.Params())
	if err != nil {
		t.Fatal(err)
	}
	var scratch Curve
	conds := []Cond{
		{VddV: 0.9, VbbV: -0.15, TK: 330},
		{VddV: 1.1, VbbV: 0.3, TK: 355},
	}
	var firstBacking *float64
	for pass, c := range conds {
		got := st.EvalInto(c, IdentityVariant(), &scratch)
		if got != &scratch {
			t.Fatal("EvalInto did not return its scratch curve")
		}
		if pass == 0 {
			firstBacking = &got.m[0]
		} else if &got.m[0] != firstBacking {
			t.Error("EvalInto reallocated a sufficient scratch array")
		}
		want := st.Eval(c, IdentityVariant())
		if got.paths != want.paths || got.zzero != want.zzero ||
			len(got.m) != len(want.m) || len(got.sig) != len(want.sig) {
			t.Fatalf("cond %+v: curve shape mismatch", c)
		}
		for i := range want.m {
			if got.m[i] != want.m[i] || got.sig[i] != want.sig[i] {
				t.Fatalf("cond %+v cell %d: EvalInto (%g,%g) != Eval (%g,%g)",
					c, i, got.m[i], got.sig[i], want.m[i], want.sig[i])
			}
		}
	}
}
