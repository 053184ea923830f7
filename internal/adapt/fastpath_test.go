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

// TestFreqBoundsHold checks, combo by combo, the two facts the best-first
// Freq search rests on: the thermal cap read through the leakage table
// equals thermal.(*Model).FRelMaxForTemp bit for bit, and the unsnapped
// fixed point never exceeds min(fT, fPE at the sink temperature). The one
// exception is below the grid floor, where a low supply under reverse body
// bias can run faster hot (under 0.1% of combos per chip, all with fixed
// points under 0.3); both sides snap to FRelMin there, which is all the
// search compares. A model change that breaks either fact fails here with
// the combo's name.
func TestFreqBoundsHold(t *testing.T) {
	core := buildCore(t, 7, allConfig)
	vdds, vbbs := allConfig.VddLevels(nominalVdd), allConfig.VbbLevels()
	for qi, q := range equivalenceQueries() {
		bq := budgetQueryFor(core.stageBudget(q.Rho))
		sinkQ := core.sinkQuery(q.THK)
		for _, i := range []int{0, 3, 8, core.N() - 1} {
			for _, vdd := range vdds {
				for _, vbb := range vbbs {
					ref := core.peRefFor(i, q.Variant, vdd, vbb)
					fT := core.Thermal.FRelMaxForTemp(
						core.subsystemInput(i, q, vdd, vbb, 0), q.THK, core.Limits.TMaxK)
					// The first call fills the table entry, the second reads it.
					for pass := 0; pass < 2; pass++ {
						if got := core.thermalCap(q, &ref); math.Float64bits(got) != math.Float64bits(fT) {
							t.Fatalf("query %d sub %d (Vdd %g, Vbb %g) pass %d: table-fed thermal cap %v != FRelMaxForTemp %v",
								qi, i, vdd, vbb, pass, got, fT)
						}
					}
					f := core.comboFMaxRef(i, q, &ref, bq, fT)
					bound := math.Min(fT, core.peFMaxQ(&ref, bq, sinkQ))
					if !(f <= bound || snapFreq(f) == tech.FRelMin) {
						t.Fatalf("query %d sub %d (Vdd %g, Vbb %g): fixed point %v exceeds the bound %v",
							qi, i, vdd, vbb, f, bound)
					}
				}
			}
		}
	}
}

// TestFastPathEquivalenceOffGrid drives FreqSolveAt with level lists off
// the Figure 7(a) grids (a VddNom ablation and a synthetic variant), which
// must take the uncached off-grid table path and still match the
// reference scan.
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

// TestSharePETables checks that a core derived by WithConfig shares its
// donor's PE-table store and produces the same solutions as a
// self-sufficient core, and that WithConfig validates the configuration.
func TestSharePETables(t *testing.T) {
	donor := buildCore(t, 11, asvConfig)
	sharer, err := donor.WithConfig(allConfig)
	if err != nil {
		t.Fatal(err)
	}
	if sharer.pe != donor.pe || sharer.Config != allConfig || &sharer.Subs[0] != &donor.Subs[0] {
		t.Fatal("WithConfig did not share the donor's subsystems and table store")
	}
	solo := buildCore(t, 11, allConfig)
	q := FreqQuery{THK: 62 + 273.15, AlphaF: 0.6, Rho: 1.1,
		Variant: vats.IdentityVariant(), PowerMult: 1}
	// Warm the donor first so the sharer hits donor-built tables.
	donor.FreqSolve(2, q)
	if got, want := sharer.FreqSolve(2, q), solo.FreqSolve(2, q); got != want {
		t.Fatalf("shared-table solve %+v != solo %+v", got, want)
	}
	if _, err := donor.WithConfig(tech.Config{ASV: true}); err == nil {
		t.Fatal("WithConfig accepted an invalid configuration")
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
