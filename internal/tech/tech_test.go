package tech

import (
	"math"
	"testing"

	"repro/internal/floorplan"
)

func TestVddLevels(t *testing.T) {
	c := Config{TimingSpec: true, ASV: true}
	lv := c.VddLevels(1.0)
	if len(lv) != 9 {
		t.Errorf("ASV has %d levels, want 9 (800..1200 mV step 50)", len(lv))
	}
	if lv[0] != 0.8 || lv[len(lv)-1] != 1.2 {
		t.Errorf("ASV range = [%v, %v], want [0.8, 1.2]", lv[0], lv[len(lv)-1])
	}
	noASV := Config{TimingSpec: true}
	if lv := noASV.VddLevels(1.0); len(lv) != 1 || lv[0] != 1.0 {
		t.Errorf("without ASV Vdd must be pinned at nominal, got %v", lv)
	}
}

func TestVbbLevels(t *testing.T) {
	c := Config{TimingSpec: true, ABB: true}
	lv := c.VbbLevels()
	if len(lv) != 21 {
		t.Errorf("ABB has %d levels, want 21 (-500..500 mV step 50)", len(lv))
	}
	if lv[0] != -0.5 || lv[len(lv)-1] != 0.5 {
		t.Errorf("ABB range = [%v, %v]", lv[0], lv[len(lv)-1])
	}
	noABB := Config{TimingSpec: true}
	if lv := noABB.VbbLevels(); len(lv) != 1 || lv[0] != 0 {
		t.Errorf("without ABB Vbb must be pinned at zero, got %v", lv)
	}
}

func TestFRelLevels(t *testing.T) {
	lv := FRelLevels()
	if lv[0] != FRelMin || math.Abs(lv[len(lv)-1]-FRelMax) > 1e-9 {
		t.Errorf("frequency grid = [%v, %v]", lv[0], lv[len(lv)-1])
	}
	// 100 MHz steps at 4 GHz nominal = 0.025 in relative units.
	for i := 1; i < len(lv); i++ {
		if math.Abs(lv[i]-lv[i-1]-FRelStep) > 1e-9 {
			t.Fatalf("grid step at %d = %v", i, lv[i]-lv[i-1])
		}
	}
}

func TestSnapFRelDown(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0.5, FRelMin},
		{FRelMin, FRelMin},
		{0.9999, 0.975},
		{1.0, 1.0},
		{1.012, 1.0},
		{9.9, FRelMax},
	}
	for _, c := range cases {
		if got := SnapFRelDown(c.in); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("SnapFRelDown(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Snapping never rounds up.
	for f := 0.6; f < 1.4; f += 0.0137 {
		if got := SnapFRelDown(f); got > f+1e-9 {
			t.Errorf("SnapFRelDown(%v) = %v rounded up", f, got)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	ok := []Config{
		{},
		{TimingSpec: true},
		{TimingSpec: true, ASV: true, ABB: true, QueueResize: true, FUReplication: true},
	}
	for i, c := range ok {
		if err := c.Validate(); err != nil {
			t.Errorf("config %d should validate: %v", i, err)
		}
	}
	bad := Config{ASV: true} // mitigation without a checker
	if err := bad.Validate(); err == nil {
		t.Error("ASV without timing speculation should be rejected")
	}
}

func TestQueueVariants(t *testing.T) {
	full := QueueFull.Variant()
	if full.MeanScale != 1 || full.SigmaScale != 1 || full.PreserveWall {
		t.Errorf("full queue variant should be identity, got %+v", full)
	}
	small := QueueThreeQuarter.Variant()
	if small.MeanScale != QueueSmallShift || small.PreserveWall {
		t.Errorf("3/4 queue variant = %+v, want shift by %v", small, QueueSmallShift)
	}
}

func TestFUVariantsAndPower(t *testing.T) {
	if v := FUNormal.Variant(); v.MeanScale != 1 || v.PreserveWall {
		t.Errorf("normal FU variant should be identity, got %+v", v)
	}
	v := FULowSlope.Variant()
	if v.MeanScale != LowSlopeMeanScale || !v.PreserveWall {
		t.Errorf("lowslope variant = %+v", v)
	}
	if FUNormal.PowerMult() != 1 || FULowSlope.PowerMult() != LowSlopePowerMult {
		t.Error("FU power multipliers wrong")
	}
}

func TestSubsystemClassification(t *testing.T) {
	if !IsFUSubsystem(floorplan.IntALU) || !IsFUSubsystem(floorplan.FPUnit) {
		t.Error("IntALU and FPUnit carry replicated FUs")
	}
	if IsFUSubsystem(floorplan.Dcache) {
		t.Error("Dcache has no FU replica")
	}
	if !IsQueueSubsystem(floorplan.IntQ) || !IsQueueSubsystem(floorplan.FPQ) {
		t.Error("IntQ and FPQ are resizable")
	}
	if IsQueueSubsystem(floorplan.IntALU) {
		t.Error("IntALU is not a queue")
	}
}

func TestStringers(t *testing.T) {
	if QueueFull.String() != "full" || QueueThreeQuarter.String() != "3/4" {
		t.Error("QueueSize.String misbehaves")
	}
	if QueueSize(9).String() == "" {
		t.Error("out-of-range QueueSize should still print")
	}
	if FUNormal.String() != "normal" || FULowSlope.String() != "lowslope" {
		t.Error("FUChoice.String misbehaves")
	}
	if FUChoice(9).String() == "" {
		t.Error("out-of-range FUChoice should still print")
	}
}
