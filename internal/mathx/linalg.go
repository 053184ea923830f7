package mathx

import (
	"errors"
	"fmt"
	"math"
)

// SymMatrix is a dense symmetric matrix stored in row-major full form.
// It is small-n linear algebra for correlation matrices of chip-grid cells;
// no attempt is made at cache blocking beyond the natural loop order.
type SymMatrix struct {
	N    int
	Data []float64 // len N*N
}

// NewSymMatrix allocates an n x n zero matrix.
func NewSymMatrix(n int) *SymMatrix {
	return &SymMatrix{N: n, Data: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *SymMatrix) At(i, j int) float64 { return m.Data[i*m.N+j] }

// Set sets elements (i, j) and (j, i).
func (m *SymMatrix) Set(i, j int, v float64) {
	m.Data[i*m.N+j] = v
	m.Data[j*m.N+i] = v
}

// ErrNotPD is returned when a Cholesky factorization encounters a
// non-positive pivot.
var ErrNotPD = errors.New("mathx: matrix not positive definite")

// Cholesky computes the lower-triangular factor L with A = L L^T.
// If the matrix is only positive semi-definite (as correlation matrices of
// strongly correlated grids often are, up to rounding), small negative
// pivots within jitter of zero are clamped; pivots more negative than
// -jitter*max-diagonal yield ErrNotPD.
func Cholesky(a *SymMatrix, jitter float64) (*SymMatrix, error) {
	n := a.N
	l := NewSymMatrix(n)
	maxDiag := 0.0
	for i := 0; i < n; i++ {
		if d := a.At(i, i); d > maxDiag {
			maxDiag = d
		}
	}
	tol := jitter * maxDiag
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			sum := a.At(i, j)
			for k := 0; k < j; k++ {
				sum -= l.Data[i*n+k] * l.Data[j*n+k]
			}
			if i == j {
				if sum < -tol {
					return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotPD, i, sum)
				}
				if sum < tol {
					sum = tol
				}
				l.Data[i*n+i] = math.Sqrt(sum)
			} else {
				l.Data[i*n+j] = sum / l.Data[j*n+j]
			}
		}
	}
	return l, nil
}

// MulLowerVec computes y = L*x for a lower-triangular L (only the lower
// triangle of l is read).
func MulLowerVec(l *SymMatrix, x []float64) []float64 {
	n := l.N
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		row := l.Data[i*n : i*n+i+1]
		for k := 0; k <= i; k++ {
			s += row[k] * x[k]
		}
		y[i] = s
	}
	return y
}
