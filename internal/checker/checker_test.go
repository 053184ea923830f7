package checker

import (
	"math"
	"testing"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBad(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.FRelSafe = 0 },
		func(c *Config) { c.FRelSafe = 2 },
		func(c *Config) { c.IPCCap = 0 },
		func(c *Config) { c.RecoveryCycles = 0.5 },
		func(c *Config) { c.DynPowerW = -1 },
	}
	for i, mutate := range cases {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestCheckerFrequencyIsSafe(t *testing.T) {
	c := DefaultConfig()
	// Figure 7(c): 3.5 GHz checker on a 4 GHz design.
	if math.Abs(c.FRelSafe-0.875) > 1e-12 {
		t.Errorf("FRelSafe = %v, want 0.875", c.FRelSafe)
	}
}

func TestThroughputCap(t *testing.T) {
	c := DefaultConfig()
	want := c.FRelSafe * c.IPCCap
	if c.ThroughputCap() != want {
		t.Errorf("ThroughputCap = %v, want %v", c.ThroughputCap(), want)
	}
}

func TestStallCPI(t *testing.T) {
	c := DefaultConfig() // cap = 1.75 instr/period
	// A core at fRel=1.0 with CPI 1.0 runs at 1.0 instr/period: under cap.
	if s := c.StallCPI(1.0, 1.0); s != 0 {
		t.Errorf("StallCPI under cap = %v, want 0", s)
	}
	// A core at fRel=1.4 with CPI 0.5 runs at 2.8 instr/period: over cap.
	s := c.StallCPI(1.4, 0.5)
	if s <= 0 {
		t.Fatalf("StallCPI over cap = %v, want > 0", s)
	}
	// With the stall added, the rate equals the cap.
	rate := 1.4 / (0.5 + s)
	if math.Abs(rate-c.ThroughputCap()) > 1e-12 {
		t.Errorf("stalled rate = %v, want %v", rate, c.ThroughputCap())
	}
	// Degenerate inputs are harmless.
	if c.StallCPI(0, 1) != 0 || c.StallCPI(1, 0) != 0 {
		t.Error("degenerate StallCPI should be 0")
	}
}

func TestPowerW(t *testing.T) {
	c := DefaultConfig()
	if c.PowerW(1.0) <= c.StaPowerW {
		t.Error("checker power at nominal should exceed its static floor")
	}
	if c.PowerW(0.5) >= c.PowerW(1.0) {
		t.Error("checker power should grow with core throughput")
	}
	// Utilization saturates.
	if c.PowerW(5.0) != c.PowerW(1.5) {
		t.Error("checker power should saturate at its bandwidth limit")
	}
}
