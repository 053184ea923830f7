// Package tech defines the error-mitigation techniques of §3.3 and the
// actuation ranges of Figure 7(a): fine-grain ASV and ABB domains, the
// replicated Normal/LowSlope functional units (a Tilt technique), and the
// resizable issue queues (a Shift technique), plus the discrete level grids
// the adaptation layer searches over.
package tech

import (
	"fmt"
	"math"

	"repro/internal/floorplan"
	"repro/internal/vats"
)

// Figure 7(a) actuation ranges.
const (
	// FRelMin/FRelMax/FRelStep define the frequency grid relative to the
	// 4 GHz nominal: "from 2.4 GHz to over 4 GHz in 100 MHz steps".
	FRelMin  = 0.6   // 2.4 GHz
	FRelMax  = 1.4   // 5.6 GHz
	FRelStep = 0.025 // 100 MHz
	// VddMinV..VddMaxV in VddStepV steps: 800..1200 mV, 50 mV.
	VddMinV  = 0.80
	VddMaxV  = 1.20
	VddStepV = 0.05
	// VbbMinV..VbbMaxV in VbbStepV steps: -500..500 mV, 50 mV.
	VbbMinV  = -0.50
	VbbMaxV  = 0.50
	VbbStepV = 0.05
)

// LowSlope FU replica characteristics (§3.3.1, after Augsburger & Nikolic):
// the replica's near-critical paths are optimized so the mean path delay
// drops ~25% (with a wider spread and an unchanged critical-path wall), at
// the cost of ~30% more power and area.
const (
	LowSlopeMeanScale = 0.75
	LowSlopePowerMult = 1.30
)

// Issue-queue resizing characteristics (§3.3.2, after Buyuktosunoglu et
// al.): disabling a quarter of the entries shortens the CAM/bitline paths,
// shifting the whole delay distribution left by a few percent.
const (
	QueueSmallFrac  = 0.75
	QueueSmallShift = 0.94
	// Full queue sizes from Figure 7(a).
	IntQueueEntries = 68
	FPQueueEntries  = 32
)

// ExtraPipeStageCycles is the pipeline lengthening cost of FU replication
// (§3.3.1): one extra stage between register read and execute, which adds
// one cycle to the branch-misprediction and load-misspeculation loops
// whenever the technique is implemented (regardless of which replica is
// enabled).
const ExtraPipeStageCycles = 1

// QueueSize selects the issue-queue configuration.
type QueueSize int

const (
	QueueFull QueueSize = iota
	QueueThreeQuarter
)

// String names the queue size.
func (q QueueSize) String() string {
	switch q {
	case QueueFull:
		return "full"
	case QueueThreeQuarter:
		return "3/4"
	default:
		return fmt.Sprintf("QueueSize(%d)", int(q))
	}
}

// Variant returns the VATS path-delay variant for the queue configuration.
func (q QueueSize) Variant() vats.Variant {
	if q == QueueThreeQuarter {
		return vats.ShiftVariant(QueueSmallShift)
	}
	return vats.IdentityVariant()
}

// FUChoice selects which FU replica is enabled.
type FUChoice int

const (
	FUNormal FUChoice = iota
	FULowSlope
)

// String names the FU choice.
func (c FUChoice) String() string {
	switch c {
	case FUNormal:
		return "normal"
	case FULowSlope:
		return "lowslope"
	default:
		return fmt.Sprintf("FUChoice(%d)", int(c))
	}
}

// Variant returns the VATS path-delay variant for the FU choice.
func (c FUChoice) Variant() vats.Variant {
	if c == FULowSlope {
		return vats.TiltVariant(LowSlopeMeanScale)
	}
	return vats.IdentityVariant()
}

// PowerMult returns the dynamic+static power multiplier of the FU choice.
func (c FUChoice) PowerMult() float64 {
	if c == FULowSlope {
		return LowSlopePowerMult
	}
	return 1
}

// Config declares which techniques an environment implements (Table 1).
type Config struct {
	// TimingSpec: a Diva-style checker tolerates timing errors, allowing
	// operation above fvar. All mitigation techniques require it.
	TimingSpec bool
	// ASV: per-subsystem adaptive supply voltage.
	ASV bool
	// ABB: per-subsystem adaptive body bias.
	ABB bool
	// QueueResize: the issue queues can run at 3/4 capacity.
	QueueResize bool
	// FUReplication: Normal/LowSlope replicas of IntALU and FPUnit.
	FUReplication bool
}

// Validate rejects configurations the paper never builds: mitigation
// without error tolerance.
func (c Config) Validate() error {
	if !c.TimingSpec && (c.ASV || c.ABB || c.QueueResize || c.FUReplication) {
		return fmt.Errorf("tech: mitigation techniques require timing speculation")
	}
	return nil
}

// The actuation grids are process constants, and the level getters sit
// inside the adaptation layer's solve loops, so they are materialized
// once at init. The returned slices are shared: callers must treat them
// as read-only.
var (
	vddGrid   = levels(VddMinV, VddMaxV, VddStepV)
	vbbGrid   = levels(VbbMinV, VbbMaxV, VbbStepV)
	fRelGrid  = levels(FRelMin, FRelMax, FRelStep)
	vbbPinned = []float64{0}
)

// VddLevels returns the discrete supply levels the config can actuate.
// Without ASV the supply is pinned at nominal. The returned slice is
// shared and must not be modified.
func (c Config) VddLevels(vddNomV float64) []float64 {
	if !c.ASV {
		return []float64{vddNomV}
	}
	return vddGrid
}

// VbbLevels returns the discrete body-bias levels. Without ABB the bias is
// pinned at zero. The returned slice is shared and must not be modified.
func (c Config) VbbLevels() []float64 {
	if !c.ABB {
		return vbbPinned
	}
	return vbbGrid
}

// FRelLevels returns the frequency grid. The returned slice is shared and
// must not be modified.
func FRelLevels() []float64 { return fRelGrid }

// NumVddLevels and NumVbbLevels are the sizes of the full Figure 7(a)
// actuation grids (with ASV/ABB enabled): 9 supply levels and 21 bias
// levels. They size the adaptation layer's dense per-level caches.
const (
	NumVddLevels = 9
	NumVbbLevels = 21
)

// VddIndex maps a supply voltage to its index on the full ASV grid.
// ok is false for values off the grid (e.g. a non-nominal VddNomV in an
// ablation), which callers must handle without the dense fast path.
func VddIndex(v float64) (idx int, ok bool) {
	return levelIndex(v, VddMinV, VddStepV, NumVddLevels)
}

// VbbIndex maps a body-bias voltage to its index on the full ABB grid.
func VbbIndex(v float64) (idx int, ok bool) {
	return levelIndex(v, VbbMinV, VbbStepV, NumVbbLevels)
}

func levelIndex(v, lo, step float64, n int) (int, bool) {
	idx := int(math.Round((v - lo) / step))
	if idx < 0 || idx >= n {
		return 0, false
	}
	// Accept only values that are (up to rounding noise) exactly on the
	// grid: the dense caches key on the index, so two distinct voltages
	// must never share a slot.
	if math.Abs(math.Round((lo+float64(idx)*step)*1e6)/1e6-v) > 1e-9 {
		return 0, false
	}
	return idx, true
}

// SnapFRelDown snaps f down to the frequency grid; values below the grid
// floor return the floor (the PLL cannot go lower).
func SnapFRelDown(f float64) float64 {
	if f <= FRelMin {
		return FRelMin
	}
	if f >= FRelMax {
		return FRelMax
	}
	steps := math.Floor((f - FRelMin) / FRelStep * (1 + 1e-12))
	return FRelMin + steps*FRelStep
}

// IsFUSubsystem reports whether id carries a replicated FU.
func IsFUSubsystem(id floorplan.ID) bool {
	return id == floorplan.IntALU || id == floorplan.FPUnit
}

// IsQueueSubsystem reports whether id is a resizable issue queue.
func IsQueueSubsystem(id floorplan.ID) bool {
	return id == floorplan.IntQ || id == floorplan.FPQ
}

func levels(lo, hi, step float64) []float64 {
	var out []float64
	for v := lo; v <= hi+1e-9; v += step {
		out = append(out, math.Round(v*1e6)/1e6)
	}
	return out
}
