package workload

import (
	"fmt"
	"math"

	"repro/internal/mathx"
)

// GenClass names a generative workload class: an archetype instruction
// mix that a generated client's phases drift around. The classes extend
// the proxy suite with characters the SPEC menu under-represents.
type GenClass string

const (
	// GenMemoryWall is streaming, memory-bound work: high load fraction,
	// L2 miss rates at the mcf/art end of the scale, high MLP.
	GenMemoryWall GenClass = "memory-wall"
	// GenBranchyInt is control-dominated integer work: every fourth
	// instruction a branch, poor predictability, short dependence chains.
	GenBranchyInt GenClass = "branchy-int"
	// GenVectorFP is vectorizable floating-point work: long dependence
	// distances (high ILP), FP-dominated compute, few branches.
	GenVectorFP GenClass = "vector-fp"
	// GenBurstyIdle is duty-cycled server work: a moderate mix whose
	// activity arrives in bursts separated by idle windows (pair with
	// DutyCycle < 1 and a bursty arrival shape).
	GenBurstyIdle GenClass = "bursty-idle"
	// GenServerMix is steady request-serving work: pointer-chasing loads
	// and stores with moderate miss rates and branchiness.
	GenServerMix GenClass = "server-mix"
)

// GenClasses lists every generative class, in reference order.
func GenClasses() []GenClass {
	return []GenClass{GenMemoryWall, GenBranchyInt, GenVectorFP, GenBurstyIdle, GenServerMix}
}

// genArchetypes maps each class to its base mix and adaptation class,
// calibrated against the proxy-suite extremes it generalizes (see the
// class reference table in WORKLOADS.md).
var genArchetypes = map[GenClass]struct {
	mix   Mix
	class Class
}{
	GenMemoryWall: {Mix{0.36, 0.12, 0.06, 0.10, 4.5, 0.010, 0.050, 0.0350, 0.60}, Int},
	GenBranchyInt: {Mix{0.24, 0.10, 0.24, 0.00, 1.8, 0.120, 0.060, 0.0010, 0.20}, Int},
	GenVectorFP:   {Mix{0.30, 0.10, 0.03, 0.60, 5.5, 0.004, 0.010, 0.0080, 0.55}, FP},
	GenBurstyIdle: {Mix{0.26, 0.12, 0.16, 0.05, 2.4, 0.050, 0.050, 0.0040, 0.30}, Int},
	GenServerMix:  {Mix{0.30, 0.14, 0.15, 0.08, 2.6, 0.060, 0.070, 0.0060, 0.35}, Int},
}

// Archetype returns a class's base mix and adaptation class.
func (c GenClass) Archetype() (Mix, Class, error) {
	a, ok := genArchetypes[c]
	if !ok {
		return Mix{}, Int, fmt.Errorf("workload: unknown generative class %q (want one of %v)", c, GenClasses())
	}
	return a.mix, a.class, nil
}

// Process names an interarrival-time distribution for a client's request
// renewal process.
type Process string

const (
	// Poisson: exponential interarrivals (memoryless; CV = 1).
	Poisson Process = "poisson"
	// Gamma: gamma interarrivals; Shape < 1 gives bursty traffic
	// (CV > 1), Shape > 1 regular traffic (CV < 1).
	Gamma Process = "gamma"
	// Weibull: weibull interarrivals; Shape plays the same CV role as
	// for Gamma, with a heavier tail below 1.
	Weibull Process = "weibull"
)

// Arrival describes one client's request arrival process. All three
// processes are mean-normalized: the expected arrival rate is RatePerS
// regardless of Shape, so Shape moves burstiness alone.
type Arrival struct {
	Process Process `json:"process"`
	// RatePerS is the mean request arrival rate in requests per second.
	RatePerS float64 `json:"rate_per_s"`
	// Shape is the gamma/weibull shape parameter (ignored for poisson;
	// defaults to 1, which makes both processes Poisson).
	Shape float64 `json:"shape,omitempty"`
}

// Validate checks the arrival process.
func (a Arrival) Validate() error {
	switch a.Process {
	case Poisson, Gamma, Weibull:
	default:
		return fmt.Errorf("workload: unknown arrival process %q (want poisson, gamma, or weibull)", a.Process)
	}
	if !(a.RatePerS > 0) || math.IsInf(a.RatePerS, 0) {
		return fmt.Errorf("workload: arrival rate_per_s %g must be a positive finite number", a.RatePerS)
	}
	if a.Shape < 0 || (a.Process != Poisson && a.Shape != 0 && !(a.Shape > 0.05 && a.Shape <= 20)) {
		return fmt.Errorf("workload: arrival shape %g out of (0.05, 20]", a.Shape)
	}
	return nil
}

// shape returns the effective shape parameter (default 1).
func (a Arrival) shape() float64 {
	if a.Shape == 0 {
		return 1
	}
	return a.Shape
}

// interarrival draws one interarrival time in seconds.
func (a Arrival) interarrival(rng *mathx.RNG) float64 {
	mean := 1 / a.RatePerS
	switch a.Process {
	case Gamma:
		k := a.shape()
		return rng.Gamma(k, mean/k)
	case Weibull:
		k := a.shape()
		return rng.Weibull(k, mean/math.Gamma(1+1/k))
	default:
		return rng.Exponential(mean)
	}
}

// ClientSpec is one generated client workload: a class archetype driven
// by an arrival process, with optional per-window mix drift and a duty
// cycle. Each client lowers to one App.
type ClientSpec struct {
	// Name labels the client; the lowered App is named "<spec>/<client>".
	Name  string   `json:"name"`
	Class GenClass `json:"class"`
	// Arrival is the request arrival process; a window's phase weight is
	// proportional to the requests that arrived in it.
	Arrival Arrival `json:"arrival"`
	// Windows is the number of phase windows to generate (default 4,
	// max 16 — the experiments weight phases, they do not replay wall
	// clock, so windows beyond the drift scale add nothing).
	Windows int `json:"windows,omitempty"`
	// Drift is the per-window mix-drift amplitude in [0, 0.5]: each mix
	// parameter follows a bounded multiplicative random walk with steps
	// of this relative size (0 = every window reuses the archetype mix).
	Drift float64 `json:"drift,omitempty"`
	// DutyCycle is the probability a window is active in (0, 1]
	// (default 1). Inactive windows receive no arrivals and produce no
	// phase — the bursty/idle classes set this well below 1.
	DutyCycle float64 `json:"duty_cycle,omitempty"`
}

// Validate checks the client spec.
func (c ClientSpec) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("workload: client has no name")
	}
	if _, _, err := c.Class.Archetype(); err != nil {
		return fmt.Errorf("workload: client %q: %w", c.Name, err)
	}
	if err := c.Arrival.Validate(); err != nil {
		return fmt.Errorf("workload: client %q: %w", c.Name, err)
	}
	if c.Windows < 0 || c.Windows > 16 {
		return fmt.Errorf("workload: client %q: windows %d out of [0, 16]", c.Name, c.Windows)
	}
	if c.Drift < 0 || c.Drift > 0.5 {
		return fmt.Errorf("workload: client %q: drift %g out of [0, 0.5]", c.Name, c.Drift)
	}
	if c.DutyCycle < 0 || c.DutyCycle > 1 {
		return fmt.Errorf("workload: client %q: duty_cycle %g out of [0, 1]", c.Name, c.DutyCycle)
	}
	return nil
}

// windows returns the effective window count (default 4).
func (c ClientSpec) windows() int {
	if c.Windows == 0 {
		return 4
	}
	return c.Windows
}

// dutyCycle returns the effective duty cycle (default 1).
func (c ClientSpec) dutyCycle() float64 {
	if c.DutyCycle == 0 {
		return 1
	}
	return c.DutyCycle
}

// Spec is a complete generative workload scenario: a named set of client
// workloads sharing one window length. A (Spec, seed) pair fully
// determines the generated apps — and therefore the trace, the profiles,
// and every experiment row derived from them.
type Spec struct {
	Name string `json:"name"`
	// WindowS is the phase-window length in seconds (default 0.12, the
	// paper's ~120 ms mean phase length).
	WindowS float64      `json:"window_s,omitempty"`
	Clients []ClientSpec `json:"clients"`
}

// MaxExpectedArrivals bounds a spec's expected request count: the sum
// over its clients of rate_per_s × window_s × windows (duty cycle
// ignored). Generate draws every arrival, so this bound is what keeps
// generation cheap: a spec at the bound generates in tens of
// milliseconds.
const MaxExpectedArrivals = 1e6

// Validate checks the spec and every client in it.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: spec has no name")
	}
	if s.WindowS < 0 || s.WindowS > 10 {
		return fmt.Errorf("workload: spec %q: window_s %g out of [0, 10]", s.Name, s.WindowS)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("workload: spec %q has no clients", s.Name)
	}
	seen := make(map[string]bool, len(s.Clients))
	expected := 0.0
	for _, c := range s.Clients {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("workload: spec %q: %w", s.Name, err)
		}
		if seen[c.Name] {
			return fmt.Errorf("workload: spec %q: duplicate client name %q", s.Name, c.Name)
		}
		seen[c.Name] = true
		expected += c.Arrival.RatePerS * s.windowS() * float64(c.windows())
	}
	if expected > MaxExpectedArrivals {
		return fmt.Errorf("workload: spec %q expects %.3g arrivals (sum of rate_per_s × window_s × windows), over the bound of %g",
			s.Name, expected, MaxExpectedArrivals)
	}
	return nil
}

// windowS returns the effective window length (default 0.12 s).
func (s Spec) windowS() float64 {
	if s.WindowS == 0 {
		return 0.12
	}
	return s.WindowS
}
