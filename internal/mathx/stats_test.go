package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := StdDev(xs); s != 2 {
		t.Errorf("StdDev = %v, want 2", s)
	}
}

func TestMeanEmpty(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty-data mean/variance should be 0")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 2}, {50, 3}, {75, 4}, {100, 5}, {10, 1.4},
	} {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err == nil {
		t.Error("expected error on empty input")
	}
	if _, err := Percentile(xs, 101); err == nil {
		t.Error("expected error on out-of-range percentile")
	}
	if v, err := Percentile([]float64{42}, 75); err != nil || v != 42 {
		t.Errorf("single-element percentile = %v, %v", v, err)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Percentile mutated its input")
	}
}

func TestClampLerp(t *testing.T) {
	if Clamp(5, 0, 3) != 3 || Clamp(-1, 0, 3) != 0 || Clamp(2, 0, 3) != 2 {
		t.Error("Clamp misbehaves")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summarize = %+v", s)
	}
	if _, err := Summarize(nil); err == nil {
		t.Error("expected error on empty input")
	}
}

// Property: the percentile function is monotone in p.
func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
		}
		pa := float64(a) / 255 * 100
		pb := float64(b) / 255 * 100
		if pa > pb {
			pa, pb = pb, pa
		}
		va, err1 := Percentile(raw, pa)
		vb, err2 := Percentile(raw, pb)
		return err1 == nil && err2 == nil && va <= vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: variance is never negative and stddev^2 equals variance.
func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(raw []float64) bool {
		for _, v := range raw {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
		}
		v := Variance(raw)
		return v >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
