package mathx

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(7).Split(1)
	b := NewRNG(7).Split(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("split streams coincide on %d of 100 draws", same)
	}
}

func TestRNGSplitDeterministic(t *testing.T) {
	a := NewRNG(7).Split(5)
	b := NewRNG(7).Split(5)
	for i := 0; i < 50; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("identical splits diverged")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	g := NewRNG(1)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = g.Normal(3, 2)
	}
	if m := Mean(xs); math.Abs(m-3) > 0.02 {
		t.Errorf("mean = %v, want ~3", m)
	}
	if s := StdDev(xs); math.Abs(s-2) > 0.02 {
		t.Errorf("stddev = %v, want ~2", s)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(2)
	for i := 0; i < 1000; i++ {
		x := g.Uniform(-1, 5)
		if x < -1 || x >= 5 {
			t.Fatalf("Uniform out of range: %v", x)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	g := NewRNG(3)
	const p = 0.25
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(g.Geometric(p))
	}
	got := sum / n
	want := (1 - p) / p
	if math.Abs(got-want) > 0.1 {
		t.Errorf("geometric mean = %v, want %v", got, want)
	}
	if g.Geometric(1) != 0 || g.Geometric(0) != 0 {
		t.Error("degenerate geometric parameters should return 0")
	}
}

func TestExponentialMean(t *testing.T) {
	g := NewRNG(4)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += g.Exponential(5)
	}
	if m := sum / n; math.Abs(m-5) > 0.1 {
		t.Errorf("exponential mean = %v, want ~5", m)
	}
}

func TestGammaMoments(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	// Both branches: boosted shape < 1 and squeeze-method shape >= 1.
	for _, c := range []struct{ shape, scale float64 }{{0.5, 2}, {3, 1.5}} {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < n; i++ {
			x := g.Gamma(c.shape, c.scale)
			if x < 0 {
				t.Fatalf("Gamma(%v, %v) sample negative: %v", c.shape, c.scale, x)
			}
			sum += x
			sumSq += x * x
		}
		mean, wantMean := sum/n, c.shape*c.scale
		varc, wantVar := sumSq/n-mean*mean, c.shape*c.scale*c.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean {
			t.Errorf("Gamma(%v, %v) mean = %v, want ~%v", c.shape, c.scale, mean, wantMean)
		}
		if math.Abs(varc-wantVar) > 0.1*wantVar {
			t.Errorf("Gamma(%v, %v) variance = %v, want ~%v", c.shape, c.scale, varc, wantVar)
		}
	}
	if g.Gamma(0, 1) != 0 || g.Gamma(1, -1) != 0 {
		t.Error("degenerate gamma parameters should return 0")
	}
}

func TestWeibullMean(t *testing.T) {
	g := NewRNG(8)
	const n = 200000
	for _, c := range []struct{ shape, scale float64 }{{0.7, 3}, {2, 1}} {
		sum := 0.0
		for i := 0; i < n; i++ {
			x := g.Weibull(c.shape, c.scale)
			if x < 0 {
				t.Fatalf("Weibull sample negative: %v", x)
			}
			sum += x
		}
		want := c.scale * math.Gamma(1+1/c.shape)
		if m := sum / n; math.Abs(m-want) > 0.05*want {
			t.Errorf("Weibull(%v, %v) mean = %v, want ~%v", c.shape, c.scale, m, want)
		}
	}
	if g.Weibull(0, 1) != 0 || g.Weibull(1, 0) != 0 {
		t.Error("degenerate weibull parameters should return 0")
	}
}

func TestGammaWeibullDeterminism(t *testing.T) {
	a, b := NewRNG(11), NewRNG(11)
	for i := 0; i < 200; i++ {
		if a.Gamma(0.8, 2) != b.Gamma(0.8, 2) {
			t.Fatal("same-seed Gamma streams diverged")
		}
		if a.Weibull(1.5, 2) != b.Weibull(1.5, 2) {
			t.Fatal("same-seed Weibull streams diverged")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := NewRNG(6)
	p := g.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}
