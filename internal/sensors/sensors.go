package sensors

import "repro/internal/mathx"

// Quantizer rounds a physical reading to a sensor's step size and adds
// bounded measurement noise.
type Quantizer struct {
	// Step is the sensor's quantization step (e.g. 0.5 K, 0.25 W).
	Step float64
	// Noise is the uniform measurement-error half-width (same units).
	Noise float64
}

// Read converts a true value into a sensor reading.
func (q Quantizer) Read(trueVal float64, rng *mathx.RNG) float64 {
	v := trueVal
	if q.Noise > 0 && rng != nil {
		v += rng.Uniform(-q.Noise, q.Noise)
	}
	if q.Step > 0 {
		steps := v / q.Step
		v = q.Step * float64(int64(steps+0.5*sign(steps)))
	}
	return v
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

// THSensor is the single heat-sink temperature sensor (§4.1: the heat
// sink's thermal time constant is tens of seconds, so it is measured every
// few seconds).
type THSensor struct {
	Quantizer
	// PeriodS is the refresh period.
	PeriodS float64

	lastReadS float64
	lastValue float64
	primed    bool
}

// NewTHSensor returns the default heat-sink sensor: 0.5 K steps, ±0.25 K
// noise, 2.5 s refresh.
func NewTHSensor() *THSensor {
	return &THSensor{
		Quantizer: Quantizer{Step: 0.5, Noise: 0.25},
		PeriodS:   2.5,
	}
}

// Sample returns the sensor's reading at time nowS given the true heat-sink
// temperature: a stale value until the next refresh boundary.
func (s *THSensor) Sample(nowS, trueK float64, rng *mathx.RNG) float64 {
	if !s.primed || nowS-s.lastReadS >= s.PeriodS {
		s.lastValue = s.Read(trueK, rng)
		s.lastReadS = nowS
		s.primed = true
	}
	return s.lastValue
}
