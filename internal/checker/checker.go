// Package checker models the Diva-like checker of §3.1 and Figure 7(c):
// a simple, architecturally-decoupled unit at retirement that verifies the
// speculative core's results, running error-free at a lower, safe frequency
// (sped up with ASV). Timing errors in the core become pipeline flushes
// with a branch-misprediction-style recovery penalty; the checker also
// hosts the core-wide PE counter the controller reads.
package checker

import (
	"fmt"
)

// Config describes the checker of Figure 7(c).
type Config struct {
	// FRelSafe is the checker's own error-free frequency relative to the
	// core's nominal: 3.5 GHz on a 4 GHz design.
	FRelSafe float64
	// IPCCap is the checker's retirement bandwidth in instructions per
	// checker cycle; Diva checkers are wide because they are simple.
	IPCCap float64
	// RecoveryCycles is the per-error recovery penalty rp: take the
	// checker's result, flush the pipeline, restart at the next
	// instruction — the same loop as a branch misprediction.
	RecoveryCycles float64
	// DynPowerW and StaPowerW are the checker's power at core-nominal
	// frequency (it occupies ~7% of processor area, Figure 7(d)).
	DynPowerW float64
	StaPowerW float64
	// L0DCacheB and L0ICacheB are the checker's private L0 caches and
	// InstrQueueEntries its retirement buffer (Figure 7(c)); they size the
	// checker and document its decoupling but do not enter the
	// performance equations directly.
	L0DCacheB         int
	L0ICacheB         int
	InstrQueueEntries int
}

// DefaultConfig returns the Figure 7(c) checker.
func DefaultConfig() Config {
	return Config{
		FRelSafe:          3.5 / 4.0,
		IPCCap:            2.0,
		RecoveryCycles:    15,
		DynPowerW:         1.0,
		StaPowerW:         0.4,
		L0DCacheB:         4096,
		L0ICacheB:         512,
		InstrQueueEntries: 32,
	}
}

// Validate checks configuration sanity.
func (c Config) Validate() error {
	if c.FRelSafe <= 0 || c.FRelSafe > 1.5 {
		return fmt.Errorf("checker: FRelSafe %g out of range", c.FRelSafe)
	}
	if c.IPCCap <= 0 {
		return fmt.Errorf("checker: IPCCap %g must be positive", c.IPCCap)
	}
	if c.RecoveryCycles < 1 {
		return fmt.Errorf("checker: RecoveryCycles %g must be >= 1", c.RecoveryCycles)
	}
	if c.DynPowerW < 0 || c.StaPowerW < 0 {
		return fmt.Errorf("checker: negative power")
	}
	return nil
}

// ThroughputCap returns the checker's sustainable instruction rate in
// instructions per *core-nominal* clock period. The speculative core cannot
// retire faster than its checker verifies.
func (c Config) ThroughputCap() float64 { return c.FRelSafe * c.IPCCap }

// StallCPI returns the extra core CPI (at core frequency fRel) needed to
// slow the core down to the checker's verification bandwidth, given the
// core's unconstrained CPI. Zero when the checker keeps up.
func (c Config) StallCPI(fRel, coreCPI float64) float64 {
	if fRel <= 0 || coreCPI <= 0 {
		return 0
	}
	rate := fRel / coreCPI // instructions per nominal period
	cap := c.ThroughputCap()
	if rate <= cap {
		return 0
	}
	// CPI that would make the rate equal the cap, minus what we have.
	return fRel/cap - coreCPI
}

// PowerW returns the checker's power contribution at core frequency fRel.
// The checker itself runs at its fixed safe frequency; its dynamic power
// scales with the verification traffic, which scales with core throughput.
func (c Config) PowerW(fRel float64) float64 {
	util := fRel
	if util > 1.5 {
		util = 1.5
	}
	return c.DynPowerW*util + c.StaPowerW
}
