package mathx

import (
	"math"
	"math/rand"
)

// RNG is a deterministic random source used across the simulator. It wraps
// math/rand with a fixed seeding discipline so that every stochastic
// component of a simulation can be reproduced exactly from a root seed.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG {
	return &RNG{r: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child RNG from this one. The child's stream
// is a deterministic function of the parent's seed and the label, so
// components can be re-seeded stably even if the order of Split calls
// between them changes.
func (g *RNG) Split(label int64) *RNG {
	// SplitMix64-style mixing of the label with a draw from the parent.
	z := uint64(g.r.Int63()) ^ (uint64(label) * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return NewRNG(int64(z))
}

// Float64 returns a uniform sample in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (g *RNG) Int63() int64 { return g.r.Int63() }

// Normal returns a sample from N(mu, sigma^2).
func (g *RNG) Normal(mu, sigma float64) float64 {
	return mu + sigma*g.r.NormFloat64()
}

// StdNormal returns a sample from N(0, 1).
func (g *RNG) StdNormal() float64 { return g.r.NormFloat64() }

// Uniform returns a sample from U[lo, hi).
func (g *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*g.r.Float64()
}

// Exponential returns a sample from an exponential distribution with the
// given mean.
func (g *RNG) Exponential(mean float64) float64 {
	return g.r.ExpFloat64() * mean
}

// Gamma returns a sample from a Gamma(shape, scale) distribution (mean
// shape*scale) using the Marsaglia-Tsang squeeze method, with the
// standard boost for shape < 1. Non-positive parameters return 0.
func (g *RNG) Gamma(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		u := g.Float64()
		for u == 0 {
			u = g.Float64()
		}
		return g.Gamma(shape+1, scale) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := g.StdNormal()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := g.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v * scale
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v * scale
		}
	}
}

// Weibull returns a sample from a Weibull(shape, scale) distribution
// (mean scale*Gamma(1+1/shape)) by inverting the CDF. Non-positive
// parameters return 0.
func (g *RNG) Weibull(shape, scale float64) float64 {
	if shape <= 0 || scale <= 0 {
		return 0
	}
	// 1-u is in (0, 1], so the log is finite.
	return scale * math.Pow(-math.Log(1-g.Float64()), 1/shape)
}

// Geometric returns a sample from a geometric distribution with success
// probability p, counted as the number of failures before the first
// success (support {0, 1, 2, ...}). For p <= 0 it returns 0.
func (g *RNG) Geometric(p float64) int {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 0
	}
	u := g.r.Float64()
	return int(math.Floor(math.Log1p(-u) / math.Log1p(-p)))
}

// Perm returns a pseudo-random permutation of [0, n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }
