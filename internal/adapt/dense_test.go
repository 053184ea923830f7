package adapt

import (
	"testing"

	"repro/internal/tech"
	"repro/internal/vats"
)

// TestDenseColumnsMatchReferenceBuilder is the equivalence check of the
// batched PE-table path: every budget column the lazy dense builder
// produced (shared curve scratch, the FMaxForPESet batch kernel) must be
// bit-identical to buildTable's independent per-budget bisections over a
// freshly frozen curve. Slots are decoded straight from the export, so the
// check covers exactly what real solves built.
func TestDenseColumnsMatchReferenceBuilder(t *testing.T) {
	core := buildCore(t, 13, allConfig)
	queries := []FreqQuery{
		{THK: thTest, AlphaF: 0.5, Rho: 1.0, Variant: vats.IdentityVariant(), PowerMult: 1},
		{THK: 72 + 273.15, AlphaF: 0.9, Rho: 0.3,
			Variant: tech.QueueThreeQuarter.Variant(), PowerMult: tech.QueueSmallFrac + 0.05},
		{THK: 50 + 273.15, AlphaF: 0.2, Rho: 2.0,
			Variant: tech.FULowSlope.Variant(), PowerMult: tech.LowSlopePowerMult},
	}
	for _, q := range queries {
		for _, i := range []int{0, core.N() - 1} {
			core.FreqSolve(i, q)
		}
	}
	tabs := core.ExportPETables()
	if len(tabs) == 0 {
		t.Fatal("no dense tables built by the solve sweep")
	}
	vdds := allConfig.VddLevels(nominalVdd)
	vbbs := allConfig.VbbLevels()
	variants := [peNumVariants]vats.Variant{
		vats.IdentityVariant(), tech.QueueThreeQuarter.Variant(), tech.FULowSlope.Variant()}
	// buildTable re-runs the full per-budget bisections, so verify a
	// deterministic sample of slots rather than every one.
	const stride = 5
	checked := 0
	for si, tb := range tabs {
		if si%stride != 0 {
			continue
		}
		slot := tb.Slot
		tIdx := slot % len(peTempsC)
		rest := slot / len(peTempsC)
		bi := rest % tech.NumVbbLevels
		rest /= tech.NumVbbLevels
		di := rest % tech.NumVddLevels
		rest /= tech.NumVddLevels
		vi := rest % peNumVariants
		sub := rest / peNumVariants
		var ref peTable
		core.buildTable(&ref, sub, variants[vi], vdds[di], vbbs[bi], tIdx)
		for b := range peBudgets {
			if tb.Mask>>b&1 == 0 {
				continue
			}
			if tb.FMax[b] != ref.fmax[b] {
				t.Fatalf("slot %d (sub %d variant %d vdd %g vbb %g tIdx %d) column %d: "+
					"batched %v != reference %v",
					slot, sub, vi, vdds[di], vbbs[bi], tIdx, b, tb.FMax[b], ref.fmax[b])
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("only %d columns verified; the sweep built too little", checked)
	}
}
