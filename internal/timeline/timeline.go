package timeline

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/mathx"
	"repro/internal/phase"
	"repro/internal/pipeline"
	"repro/internal/sensors"
	"repro/internal/workload"
)

// EventKind classifies timeline events.
type EventKind int

const (
	// EventNewPhase: a never-seen phase; the full adaptation runs.
	EventNewPhase EventKind = iota
	// EventReusePhase: a recurring phase; the saved configuration loads.
	EventReusePhase
	// EventStablePhase: the interval continued the current phase.
	EventStablePhase
	// EventTHRefresh: the heat-sink sensor was re-read.
	EventTHRefresh
	NumEventKinds // sentinel
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventNewPhase:
		return "new-phase"
	case EventReusePhase:
		return "reuse-phase"
	case EventStablePhase:
		return "stable"
	case EventTHRefresh:
		return "th-refresh"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one timeline entry.
type Event struct {
	TimeMS  float64
	Kind    EventKind
	PhaseID int
	// FCore is the relative frequency in force after the event.
	FCore float64
	// Outcome and RetuneSteps describe the adaptation (new phases only).
	Outcome     adapt.Outcome
	RetuneSteps int
	// OverheadUS is the execution time this event cost (controller run +
	// transition; measurement and retuning overlap execution).
	OverheadUS float64
	// SensedTHK is the heat-sink sensor's reading at TH-refresh events
	// (quantized and noisy, per §4.3.2).
	SensedTHK float64
}

// Summary aggregates a run.
type Summary struct {
	DurationMS      float64
	Intervals       int
	NewPhases       int
	ReusedPhases    int
	Violations      int
	TotalOverheadUS float64
	// OverheadFrac is total overhead over total time.
	OverheadFrac float64
	// MeanFCore is the time-weighted mean relative frequency.
	MeanFCore float64
	// StablePhaseFrac is the fraction of intervals spent in recognized
	// phases (the paper: stable phases cover 90-95% of execution).
	StablePhaseFrac float64
}

// Config controls a timeline run.
type Config struct {
	DurationMS float64
	Seed       int64
	// BBVNoise is the per-bucket measurement jitter amplitude.
	BBVNoise int
	// Threshold is the phase detector's distance threshold.
	Threshold float64
}

// DefaultConfig runs one second of execution.
func DefaultConfig() Config {
	return Config{
		DurationMS: 1000,
		Seed:       1,
		BBVNoise:   2,
		Threshold:  phase.DefaultThreshold,
	}
}

// Profiler supplies measured phase profiles (satisfied by core.Simulator).
type Profiler interface {
	Profile(app workload.App, ph workload.Phase) (pipeline.Profile, error)
}

// Run simulates the controller system over app's phases on the given core.
func Run(profiler Profiler, cpu *adapt.Core, app workload.App, solver adapt.Solver, cfg Config) ([]Event, Summary, error) {
	if cfg.DurationMS <= 0 {
		return nil, Summary{}, fmt.Errorf("timeline: duration %g must be positive", cfg.DurationMS)
	}
	det, err := phase.NewDetector(cfg.Threshold)
	if err != nil {
		return nil, Summary{}, err
	}
	rng := mathx.NewRNG(cfg.Seed)
	saved := adapt.NewPhaseTable()
	thSensor := sensors.NewTHSensor()
	lastTrueTH := cpu.Thermal.Params().THBaseK

	var events []Event
	var sum Summary
	sum.DurationMS = cfg.DurationMS
	var fTimeProduct float64
	curF := 0.0
	nextTHRefreshMS := phase.THRefreshS * 1000

	t := 0.0
	phIdx := rng.Intn(len(app.Phases))
	for t < cfg.DurationMS {
		// Dwell in the current phase for an exponential time around the
		// 120 ms mean, quantized to at least one detector interval.
		dwell := rng.Exponential(phase.MeanPhaseLengthMS)
		if dwell < 10 {
			dwell = 10
		}
		if t+dwell > cfg.DurationMS {
			dwell = cfg.DurationMS - t
		}
		ph := app.Phases[phIdx]
		bbv := phase.FromSignature(ph.Signature).Noisy(rng, cfg.BBVNoise)
		obs := det.Observe(bbv)
		ev := Event{TimeMS: t, PhaseID: obs.PhaseID}
		sum.Intervals++

		switch {
		case obs.New:
			prof, err := profiler.Profile(app, ph)
			if err != nil {
				return nil, Summary{}, err
			}
			res, err := cpu.AdaptSteady(prof, solver)
			if err != nil {
				return nil, Summary{}, err
			}
			saved.Save(obs.PhaseID, res.Point)
			curF = res.Point.FCore
			if res.State.Core.THK > 0 {
				lastTrueTH = res.State.Core.THK
			}
			ev.Kind = EventNewPhase
			ev.Outcome = res.Outcome
			ev.RetuneSteps = res.Steps
			ev.OverheadUS = phase.ControllerUS + phase.TransitionUS
			sum.NewPhases++
			if res.Outcome == adapt.OutcomeError || res.Outcome == adapt.OutcomeTemp ||
				res.Outcome == adapt.OutcomePower {
				sum.Violations++
			}
		case obs.Changed:
			if pt, ok := saved.Lookup(obs.PhaseID); ok {
				curF = pt.FCore
			}
			ev.Kind = EventReusePhase
			ev.OverheadUS = phase.TransitionUS
			sum.ReusedPhases++
		default:
			ev.Kind = EventStablePhase
		}
		ev.FCore = curF
		sum.TotalOverheadUS += ev.OverheadUS
		fTimeProduct += curF * dwell
		events = append(events, ev)

		// Heat-sink sensor refreshes: the quantized, noisy reading the
		// controller would use until the next refresh (§4.3.2).
		for nextTHRefreshMS < t+dwell {
			reading := thSensor.Sample(nextTHRefreshMS/1000, lastTrueTH, rng)
			events = append(events, Event{
				TimeMS: nextTHRefreshMS, Kind: EventTHRefresh, PhaseID: obs.PhaseID,
				FCore: curF, SensedTHK: reading,
			})
			nextTHRefreshMS += phase.THRefreshS * 1000
		}

		t += dwell
		phIdx = rng.Intn(len(app.Phases))
	}

	sum.OverheadFrac = sum.TotalOverheadUS / (cfg.DurationMS * 1000)
	sum.MeanFCore = fTimeProduct / cfg.DurationMS
	if sum.Intervals > 0 {
		sum.StablePhaseFrac = 1 - float64(sum.NewPhases)/float64(sum.Intervals)
	}
	return events, sum, nil
}
