package vats

import "fmt"

// CurveStats summarizes a frozen stage curve for reporting and figure
// generation.
type CurveStats struct {
	// MeanDelay and MaxDelay are the mixture's per-cell mean path delays
	// (nominal periods): the average cell and the slowest cell.
	MeanDelay float64
	MaxDelay  float64
	// Wall is the effective critical-path delay (the PE-curve intercept).
	Wall float64
	// FVar is the error-free frequency.
	FVar float64
	// OnsetSpan is the relative frequency distance between PE=1e-8 and
	// PE=1e-2 — the §6.1 steepness measure (small for memory, large for
	// logic).
	OnsetSpan float64
	// Cells is the number of variation-map cells in the mixture.
	Cells int
}

// Stats computes the curve's summary.
func (cv *Curve) Stats() CurveStats {
	st := CurveStats{Cells: len(cv.m), Wall: cv.Wall(), FVar: cv.FVar()}
	sum := 0.0
	for i, m := range cv.m {
		sum += m
		if m > st.MaxDelay {
			st.MaxDelay = m
		}
		_ = i
	}
	if len(cv.m) > 0 {
		st.MeanDelay = sum / float64(len(cv.m))
	}
	fLo := cv.FMaxForPE(1e-8)
	fHi := cv.FMaxForPE(1e-2)
	if fLo > 0 {
		st.OnsetSpan = (fHi - fLo) / fLo
	}
	return st
}

// String renders the stats compactly.
func (s CurveStats) String() string {
	return fmt.Sprintf("cells=%d mean=%.3f max=%.3f wall=%.3f fvar=%.3f onset=%.1f%%",
		s.Cells, s.MeanDelay, s.MaxDelay, s.Wall, s.FVar, s.OnsetSpan*100)
}
