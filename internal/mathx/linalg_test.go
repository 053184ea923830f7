package mathx

import (
	"errors"
	"math"
	"testing"
)

func TestCholeskyIdentity(t *testing.T) {
	n := 4
	a := NewSymMatrix(n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	l, err := Cholesky(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(l.At(i, j)-want) > 1e-12 {
				t.Errorf("L[%d][%d] = %v, want %v", i, j, l.At(i, j), want)
			}
		}
	}
}

func TestCholeskyReconstruction(t *testing.T) {
	// A known SPD matrix.
	a := NewSymMatrix(3)
	a.Set(0, 0, 4)
	a.Set(0, 1, 2)
	a.Set(0, 2, -2)
	a.Set(1, 1, 10)
	a.Set(1, 2, 2)
	a.Set(2, 2, 5)
	l, err := Cholesky(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	// Verify L L^T = A.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			s := 0.0
			for k := 0; k < 3; k++ {
				s += l.At(i, k) * l.At(j, k)
			}
			if math.Abs(s-a.At(i, j)) > 1e-10 {
				t.Errorf("(LL^T)[%d][%d] = %v, want %v", i, j, s, a.At(i, j))
			}
		}
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewSymMatrix(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2) // correlation > 1 => not PSD
	a.Set(1, 1, 1)
	if _, err := Cholesky(a, 1e-12); !errors.Is(err, ErrNotPD) {
		t.Errorf("expected ErrNotPD, got %v", err)
	}
}

func TestCholeskySemiDefiniteClamped(t *testing.T) {
	// Perfectly correlated pair: PSD but singular. Jitter should rescue it.
	a := NewSymMatrix(2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 1)
	a.Set(1, 1, 1)
	if _, err := Cholesky(a, 1e-9); err != nil {
		t.Errorf("PSD matrix with jitter should factor, got %v", err)
	}
}

func TestMulLowerVec(t *testing.T) {
	l := NewSymMatrix(3)
	// Lower triangle: [[1,0,0],[2,3,0],[4,5,6]]
	l.Data[0] = 1
	l.Data[3], l.Data[4] = 2, 3
	l.Data[6], l.Data[7], l.Data[8] = 4, 5, 6
	y := MulLowerVec(l, []float64{1, 1, 1})
	want := []float64{1, 5, 15}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestCorrelatedSamplesHaveTargetCorrelation(t *testing.T) {
	// Generate correlated pairs via Cholesky and verify empirical correlation.
	rho := 0.8
	a := NewSymMatrix(2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	a.Set(0, 1, rho)
	l, err := Cholesky(a, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	g := NewRNG(9)
	const n = 100000
	var sx, sy, sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		z := []float64{g.StdNormal(), g.StdNormal()}
		v := MulLowerVec(l, z)
		sx += v[0]
		sy += v[1]
		sxy += v[0] * v[1]
		sxx += v[0] * v[0]
		syy += v[1] * v[1]
	}
	num := sxy/n - (sx/n)*(sy/n)
	den := math.Sqrt((sxx/n - (sx/n)*(sx/n)) * (syy/n - (sy/n)*(sy/n)))
	got := num / den
	if math.Abs(got-rho) > 0.02 {
		t.Errorf("empirical correlation = %v, want %v", got, rho)
	}
}
