package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct {
		x, want float64
	}{
		{0, 0.5},
		{1, 0.8413447460685429},
		{-1, 0.15865525393145707},
		{2, 0.9772498680518208},
		{-2, 0.022750131948179195},
		{3.5, 0.9997673709209645},
	}
	for _, c := range cases {
		got := NormalCDF(c.x)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("NormalCDF(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.9999, 1 - 1e-8} {
		x := NormalQuantile(p)
		back := NormalCDF(x)
		if math.Abs(back-p) > 1e-10*math.Max(1, 1/p) {
			t.Errorf("NormalCDF(NormalQuantile(%g)) = %g", p, back)
		}
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) {
		t.Error("NormalQuantile(0) should be -Inf")
	}
	if !math.IsInf(NormalQuantile(1), 1) {
		t.Error("NormalQuantile(1) should be +Inf")
	}
	if !math.IsNaN(NormalQuantile(math.NaN())) {
		t.Error("NormalQuantile(NaN) should be NaN")
	}
	if NormalQuantile(0.5) != 0 {
		// The Halley step preserves the exact zero at the median.
		if math.Abs(NormalQuantile(0.5)) > 1e-15 {
			t.Errorf("NormalQuantile(0.5) = %g, want 0", NormalQuantile(0.5))
		}
	}
}

func TestNormalQuantileMonotone(t *testing.T) {
	f := func(a, b float64) bool {
		pa := math.Mod(math.Abs(a), 1)
		pb := math.Mod(math.Abs(b), 1)
		if pa == 0 || pb == 0 || pa == pb {
			return true
		}
		if pa > pb {
			pa, pb = pb, pa
		}
		return NormalQuantile(pa) <= NormalQuantile(pb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormalTailProbDeepTail(t *testing.T) {
	// At x=8 the naive 1-CDF is exactly 0 in float64; the Erfc-based tail
	// must still resolve ~6.2e-16.
	p := NormalTailProb(8)
	if p <= 0 || p > 1e-14 {
		t.Errorf("NormalTailProb(8) = %g, want ~6e-16", p)
	}
	if NormalTailProb(0) != 0.5 {
		t.Errorf("NormalTailProb(0) = %g, want 0.5", NormalTailProb(0))
	}
}

func TestNormalPDFIntegratesToCDF(t *testing.T) {
	// Trapezoidal integration of the PDF should approximate the CDF.
	const h = 1e-3
	sum := 0.0
	x := -8.0
	for x < 1.0 {
		sum += h * 0.5 * (NormalPDF(x) + NormalPDF(x+h))
		x += h
	}
	want := NormalCDF(1.0)
	if math.Abs(sum-want) > 1e-6 {
		t.Errorf("integral = %v, want %v", sum, want)
	}
}
