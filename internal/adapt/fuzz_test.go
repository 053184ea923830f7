package adapt

import (
	"math"
	"sync"
	"testing"

	"repro/internal/fuzzy"
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

// tinySolver is a real solver small enough to fuzz its payload: two
// entries, the identity and the LowSlope variant of two subsystems, each
// a triple of two-rule controllers fitted to a smooth synthetic surface.
func tinySolver(tb testing.TB) *FuzzySolver {
	tb.Helper()
	cfg := fuzzy.DefaultTrainConfig()
	cfg.Rules, cfg.Epochs = 2, 1
	fit := func(width int, scale float64) *fuzzy.Controller {
		var ex []fuzzy.Example
		for i := 0; i < 6; i++ {
			x := make([]float64, width)
			y := 0.0
			for j := range x {
				x[j] = float64((i*7+j*3)%11) / 10
				y += x[j] * scale
			}
			ex = append(ex, fuzzy.Example{X: x, Y: y})
		}
		fc, err := fuzzy.Train(ex, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		return fc
	}
	s := &FuzzySolver{
		freq:        map[fcKey]*fuzzy.Controller{},
		vdd:         map[fcKey]*fuzzy.Controller{},
		vbb:         map[fcKey]*fuzzy.Controller{},
		freqBias:    map[fcKey]float64{},
		minBiasComp: tech.FRelStep / 2,
	}
	for i, key := range []fcKey{{sub: 0, variant: vats.IdentityVariant()}, {sub: 5, variant: tech.FULowSlope.Variant()}} {
		s.freq[key] = fit(6, 0.1*float64(i+1))
		s.vdd[key] = fit(7, 0.2)
		s.vbb[key] = fit(7, -0.05)
		s.freqBias[key] = 0.003 * float64(i+1)
	}
	return s
}

// sameSolver reports whether a and b hold Equal controllers under the
// same keys and bit-identical bias terms.
func sameSolver(a, b *FuzzySolver) bool {
	if len(a.freq) != len(b.freq) || len(a.vdd) != len(b.vdd) || len(a.vbb) != len(b.vbb) ||
		math.Float64bits(a.minBiasComp) != math.Float64bits(b.minBiasComp) {
		return false
	}
	for k, fc := range a.freq {
		bias, ok := b.freqBias[k]
		if !ok || !fc.Equal(b.freq[k]) || !a.vdd[k].Equal(b.vdd[k]) || !a.vbb[k].Equal(b.vbb[k]) ||
			math.Float64bits(a.freqBias[k]) != math.Float64bits(bias) {
			return false
		}
	}
	return true
}

// FuzzSolverPayload fuzzes the solver payload decoder, which a unit that
// misses trusts for its controllers: UnmarshalBinary never panics, and a
// payload it accepts re-encodes to a payload that decodes to the same
// controllers and bias terms. The seeds are a real record, its
// truncations, length lies in the entry and rule counts, trailing bytes,
// and controller headers whose rules×width the payload cannot hold (the
// decoder must reject them before allocating).
func FuzzSolverPayload(f *testing.F) {
	rec, err := tinySolver(f).MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	if err := new(FuzzySolver).UnmarshalBinary(rec); err != nil {
		f.Fatalf("the real record does not decode: %v", err)
	}
	f.Add(rec)
	for _, n := range []int{0, 1, 2, 10, 11, 37, len(rec) / 2, len(rec) - 1} {
		f.Add(rec[:n])
	}
	// Byte 10 is the entry count (tag, version, min_bias_comp), and byte
	// 37 the first controller's rule count (entry header: sub, variant,
	// bias).
	for _, lie := range []struct {
		at int
		v  []byte
	}{{10, []byte{3}}, {10, []byte{0}}, {10, []byte{0xff, 0xff, 0x03}}, {37, []byte{0x7f}}, {37, []byte{0}}} {
		b := append(append(append([]byte(nil), rec[:lie.at]...), lie.v...), rec[lie.at+1:]...)
		f.Add(b)
	}
	f.Add(append(append([]byte(nil), rec...), 0))
	f.Add(append(append([]byte(nil), rec...), rec[:12]...))
	// Bytes 37 and 38 are the first controller's rules (2) and width (6):
	// 25 rules of 16,383 inputs, 65,535 rules of 7, and both limits.
	for _, hdr := range [][]byte{
		{25, 0xff, 0x7f}, {0xff, 0xff, 0x03, 7}, {0x80, 0x80, 0x04, 0x80, 0x80, 0x04}, {2, 0x80, 0x80, 0x04},
	} {
		f.Add(append(append(append([]byte(nil), rec[:37]...), hdr...), rec[39:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s FuzzySolver
		if s.UnmarshalBinary(data) != nil {
			return
		}
		again, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("re-encoding an accepted payload: %v", err)
		}
		var r FuzzySolver
		if err := r.UnmarshalBinary(again); err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if !sameSolver(&s, &r) {
			t.Fatal("re-encoded payload decodes to different controllers or bias terms")
		}
	})
}
