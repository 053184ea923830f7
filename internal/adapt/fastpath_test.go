package adapt

import (
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/vats"
)

// equivalenceQueries spans the solver input space, including the edge
// cases: idle stages (rho ≈ 0), heat sink at the cap, device temperatures
// beyond the PE-table grid, the LowSlope (Tilt) and 3/4-queue (Shift)
// variants, and saturated activity.
func equivalenceQueries() []FreqQuery {
	identity := vats.IdentityVariant()
	shift := tech.QueueThreeQuarter.Variant()
	tilt := tech.FULowSlope.Variant()
	var out []FreqQuery
	for _, th := range []float64{45 + 273.15, 62 + 273.15, 70 + 273.15, 96 + 273.15} {
		for _, alpha := range []float64{0.005, 0.3, 1.0} {
			for _, rho := range []float64{0, 0.4, 3.5} {
				out = append(out, FreqQuery{THK: th, AlphaF: alpha, Rho: rho,
					Variant: identity, PowerMult: 1})
			}
			out = append(out,
				FreqQuery{THK: th, AlphaF: alpha, Rho: alpha * 1.7,
					Variant: shift, PowerMult: tech.QueueSmallFrac + 0.05},
				FreqQuery{THK: th, AlphaF: alpha, Rho: alpha * 1.7,
					Variant: tilt, PowerMult: tech.LowSlopePowerMult})
		}
	}
	return out
}

// TestFastPathEquivalence is the golden equivalence check of the fast
// adaptation engine: with pruning and the dense PE tables on, FreqSolve
// and PowerSolve must return results identical to the reference
// exhaustive scan (DisablePruning). Queries are solved twice on the fast
// core — the first pass builds the PE tables it reads, the second
// exercises the warm tables.
func TestFastPathEquivalence(t *testing.T) {
	for _, cfg := range []tech.Config{tsConfig, asvConfig, preferred, allConfig} {
		fast := buildCore(t, 7, cfg)
		ref := buildCore(t, 7, cfg)
		ref.DisablePruning = true
		queries := equivalenceQueries()
		for pass := 0; pass < 2; pass++ {
			for qi, q := range queries {
				for _, i := range []int{0, 3, 8, fast.N() - 1} {
					fr := fast.FreqSolve(i, q)
					rr := ref.FreqSolve(i, q)
					if fr != rr {
						t.Fatalf("cfg %+v pass %d query %d sub %d: FreqSolve fast %+v != ref %+v",
							cfg, pass, qi, i, fr, rr)
					}
					fCore := tech.SnapFRelDown(math.Max(rr.FMax*0.9, tech.FRelMin))
					fp := fast.PowerSolve(i, fCore, q)
					rp := ref.PowerSolve(i, fCore, q)
					if fp.VddV != rp.VddV || fp.VbbV != rp.VbbV || fp.Feasible != rp.Feasible {
						t.Fatalf("cfg %+v pass %d query %d sub %d: PowerSolve fast (%g,%g,%v) != ref (%g,%g,%v)",
							cfg, pass, qi, i, fp.VddV, fp.VbbV, fp.Feasible, rp.VddV, rp.VbbV, rp.Feasible)
					}
					if fp.State != rp.State {
						t.Fatalf("cfg %+v pass %d query %d sub %d: PowerSolve states differ", cfg, pass, qi, i)
					}
				}
			}
		}
	}
}

// TestFastPathEquivalenceOffGrid drives FreqSolveAt with level lists off
// the Figure 7(a) grids (a VddNom ablation and a synthetic variant), which
// must take the overflow-table path and still match the reference scan.
func TestFastPathEquivalenceOffGrid(t *testing.T) {
	fast := buildCore(t, 9, allConfig)
	ref := buildCore(t, 9, allConfig)
	ref.DisablePruning = true
	vdds := []float64{0.97}          // off-grid supply
	vbbs := []float64{-0.125, 0.06}  // off-grid biases
	exotic := vats.ShiftVariant(0.9) // not a §3.3 variant
	for _, q := range []FreqQuery{
		{THK: 60 + 273.15, AlphaF: 0.4, Rho: 0.8, Variant: exotic, PowerMult: 1},
		{THK: 70 + 273.15, AlphaF: 1.0, Rho: 2.0, Variant: vats.IdentityVariant(), PowerMult: 1},
	} {
		for _, i := range []int{0, 5} {
			fr := fast.FreqSolveAt(i, q, vdds, vbbs)
			rr := ref.FreqSolveAt(i, q, vdds, vbbs)
			if fr != rr {
				t.Fatalf("query %+v sub %d: FreqSolveAt fast %+v != ref %+v", q, i, fr, rr)
			}
		}
	}
}

// TestSharePETables checks donor validation and that a sharing core
// produces the same solutions as a self-sufficient one.
func TestSharePETables(t *testing.T) {
	donor := buildCore(t, 11, asvConfig)
	sharer := buildCore(t, 11, allConfig)
	// Both cores model the same chip but were assembled independently, so
	// their Stage pointers differ and sharing must be refused.
	if err := sharer.SharePETables(donor); err == nil {
		t.Fatal("SharePETables accepted cores with different stage models")
	}
	// Rebuild the sharer on the donor's assembly, the way core.runChip
	// shares one build across environments.
	rebuilt, err := NewCore(donor.Subs, donor.Power, donor.Thermal,
		donor.Checker, allConfig, donor.Limits)
	if err != nil {
		t.Fatal(err)
	}
	if err := rebuilt.SharePETables(donor); err != nil {
		t.Fatal(err)
	}
	solo := buildCore(t, 11, allConfig)
	q := FreqQuery{THK: 62 + 273.15, AlphaF: 0.6, Rho: 1.1,
		Variant: vats.IdentityVariant(), PowerMult: 1}
	// Warm the donor first so the sharer hits donor-built tables.
	donor.FreqSolve(2, q)
	if got, want := rebuilt.FreqSolve(2, q), solo.FreqSolve(2, q); got != want {
		t.Fatalf("shared-table solve %+v != solo %+v", got, want)
	}
	if err := sharer.SharePETables(nil); err == nil {
		t.Fatal("SharePETables accepted a nil donor")
	}
}

// TestFreqSolvePrunes asserts the bound actually fires: an ALL-config
// solve over the 9×21 grid must skip a substantial share of combos.
func TestFreqSolvePrunes(t *testing.T) {
	core := buildCore(t, 4, allConfig)
	core.Obs = obs.NewRegistry()
	q := FreqQuery{THK: 62 + 273.15, AlphaF: 0.6, Rho: 1.2,
		Variant: vats.IdentityVariant(), PowerMult: 1}
	core.FreqSolve(3, q)
	pruned := core.Obs.Counter("adapt.freq.pruned_combos").Value()
	total := int64(tech.NumVddLevels * tech.NumVbbLevels)
	if pruned == 0 || pruned >= total {
		t.Fatalf("pruned %d of %d combos; expected 0 < pruned < total", pruned, total)
	}
}
