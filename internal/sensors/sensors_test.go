package sensors

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/mathx"
)

func TestQuantizerNoiselessRounding(t *testing.T) {
	q := Quantizer{Step: 0.5}
	cases := []struct{ in, want float64 }{
		{330.0, 330.0}, {330.2, 330.0}, {330.3, 330.5}, {330.74, 330.5},
		{-1.2, -1.0}, {-1.3, -1.5},
	}
	for _, c := range cases {
		if got := q.Read(c.in, nil); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Read(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Zero step = pass-through.
	free := Quantizer{}
	if free.Read(123.456, nil) != 123.456 {
		t.Error("zero-step quantizer must pass through")
	}
}

func TestQuantizerErrorBoundProperty(t *testing.T) {
	rng := mathx.NewRNG(1)
	q := Quantizer{Step: 0.5, Noise: 0.25}
	f := func(raw int16) bool {
		v := float64(raw) / 100
		got := q.Read(v, rng)
		// Error bounded by noise + half a step.
		return math.Abs(got-v) <= 0.25+0.25+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTHSensorRefreshPeriod(t *testing.T) {
	s := NewTHSensor()
	rng := mathx.NewRNG(2)
	r0 := s.Sample(0, 330, rng)
	// Within the period the reading is stale even if the truth moves.
	r1 := s.Sample(1.0, 340, rng)
	if r1 != r0 {
		t.Errorf("reading refreshed early: %v -> %v", r0, r1)
	}
	// Past the period it refreshes.
	r2 := s.Sample(2.6, 340, rng)
	if math.Abs(r2-340) > 1.0 {
		t.Errorf("refreshed reading %v far from truth 340", r2)
	}
}

func TestDefaultSensorsReasonable(t *testing.T) {
	th := NewTHSensor()
	if th.PeriodS < 2 || th.PeriodS > 3 {
		t.Errorf("TH refresh period %v outside the paper's 2-3 s", th.PeriodS)
	}
}
