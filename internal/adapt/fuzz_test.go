package adapt

import (
	"math"
	"sync"
	"testing"

	"repro/internal/tech"
	"repro/internal/vats"
)

// fuzzSolveState lazily builds the pruned/unpruned core pair once per
// fuzz process and serializes solve calls (FreqSolve builds into the
// cores' PE-table stores).
var fuzzSolveState struct {
	once     sync.Once
	mu       sync.Mutex
	pruned   *Core
	unpruned *Core
}

// clampFinite folds an arbitrary fuzzer float into [lo, hi], mapping
// NaN/Inf onto lo so every input reaches the solver.
func clampFinite(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	return math.Min(hi, math.Max(lo, x))
}

// FuzzFreqSolvePrunedVsUnpruned fuzzes the best-first Freq search against
// the grid-order reference scan: for any on-range query, the pruned solve
// must return the exact same (FMax, Vdd, Vbb) as the unpruned one. A
// bound that is not a true upper bound, or a tie broken otherwise than by
// the lowest canonical index, shows up here as a divergence. The low six
// bits of sub pick the subsystem and the high two the structural variant
// (identity, the 3/4 queue, the LowSlope FU). The sink range reaches past
// TMAX, so the thermal cap binds in some cases and every combo ties at
// FRelMin in others.
func FuzzFreqSolvePrunedVsUnpruned(f *testing.F) {
	variants := [...]vats.Variant{
		vats.IdentityVariant(), tech.QueueThreeQuarter.Variant(), tech.FULowSlope.Variant()}
	f.Add(uint8(0), 62+273.15, 0.6, 1.2, 1.0)
	f.Add(uint8(3), 48+273.15, 0.02, 0.09, 0.8)
	f.Add(uint8(7), 68+273.15, 1.0, 4.5, 1.3)
	f.Fuzz(func(t *testing.T, sub uint8, thK, alpha, rho, pmult float64) {
		st := &fuzzSolveState
		st.once.Do(func() {
			st.pruned = buildCore(t, 4, allConfig)
			st.unpruned = buildCore(t, 4, allConfig)
			st.unpruned.DisablePruning = true
		})
		q := FreqQuery{
			// The controller's operating ranges (Table 2 draws plus margin),
			// with the sink up to 11 K past TMAX.
			THK:       clampFinite(thK, 40+273.15, 96+273.15),
			AlphaF:    clampFinite(alpha, 0.02, 1.0),
			Rho:       clampFinite(rho, 0.02, 5.0),
			Variant:   variants[int(sub>>6)%len(variants)],
			PowerMult: clampFinite(pmult, 0.5, 1.5),
		}
		i := int(sub&63) % st.pruned.N()
		st.mu.Lock()
		defer st.mu.Unlock()
		got := st.pruned.FreqSolve(i, q)
		want := st.unpruned.FreqSolve(i, q)
		if got != want {
			t.Fatalf("sub %d query %+v: pruned solve %+v != unpruned %+v", i, q, got, want)
		}
	})
}
