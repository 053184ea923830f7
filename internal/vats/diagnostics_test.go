package vats

import (
	"strings"
	"testing"

	"repro/internal/floorplan"
)

func TestCurveStats(t *testing.T) {
	fp, gen := testFixtures(t)
	chip := gen.Chip(3)
	corner := designCorner(gen.Params())
	for _, sub := range fp.Subsystems {
		st, err := NewStage(sub, chip, gen.Params())
		if err != nil {
			t.Fatal(err)
		}
		cv := st.Eval(corner, IdentityVariant())
		stats := cv.Stats()
		if stats.Cells <= 0 {
			t.Errorf("%v: no cells", sub.ID)
		}
		if stats.MaxDelay < stats.MeanDelay {
			t.Errorf("%v: max delay %v below mean %v", sub.ID, stats.MaxDelay, stats.MeanDelay)
		}
		if stats.Wall < stats.MaxDelay {
			t.Errorf("%v: wall %v below max mean delay %v", sub.ID, stats.Wall, stats.MaxDelay)
		}
		if stats.FVar <= 0 || stats.OnsetSpan < 0 {
			t.Errorf("%v: stats %+v", sub.ID, stats)
		}
		if !strings.Contains(stats.String(), "fvar=") {
			t.Error("String() misses fields")
		}
	}
}

func TestOnsetSpanOrderingByKind(t *testing.T) {
	// §6.1: memory rapid onset (small span), logic gradual (large span).
	fp, gen := testFixtures(t)
	chip := gen.Chip(4)
	corner := designCorner(gen.Params())
	var memSpan, logicSpan []float64
	for _, sub := range fp.Subsystems {
		st, err := NewStage(sub, chip, gen.Params())
		if err != nil {
			t.Fatal(err)
		}
		span := st.Eval(corner, IdentityVariant()).Stats().OnsetSpan
		switch sub.Kind {
		case floorplan.Memory:
			memSpan = append(memSpan, span)
		case floorplan.Logic:
			if sub.ID != floorplan.IntALU && sub.ID != floorplan.FPUnit {
				// FUs have an engineered critical-path wall; compare
				// against plain logic (Decode).
				logicSpan = append(logicSpan, span)
			}
		}
	}
	if len(memSpan) == 0 || len(logicSpan) == 0 {
		t.Fatal("missing kinds")
	}
	maxMem := memSpan[0]
	for _, s := range memSpan {
		if s > maxMem {
			maxMem = s
		}
	}
	for _, s := range logicSpan {
		if s <= maxMem {
			t.Errorf("logic onset span %v not above all memory spans (max %v)", s, maxMem)
		}
	}
}
