// Package core is the top of the EVAL stack: it assembles the variation,
// timing, power, thermal, checker, and adaptation models into per-chip
// processor instances, defines the eight evaluation environments of
// Table 1, and runs the multi-chip, multi-application experiments behind
// every figure and table of the paper's evaluation (§5-6).
package core

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/checker"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/tech"
	"repro/internal/thermal"
	"repro/internal/varius"
	"repro/internal/vats"
	"repro/internal/workload"
)

// Environment identifies one of the Table 1 configurations.
type Environment int

const (
	// Baseline: plain processor with variation effects; must run
	// error-free, so it clocks at the worst-case-safe frequency.
	Baseline Environment = iota
	// TS: Baseline plus a Diva checker for timing speculation.
	TS
	// TSASV adds per-subsystem adaptive supply voltage (§3.3.3).
	TSASV
	// TSASVABB adds adaptive body bias on top of ASV.
	TSASVABB
	// TSASVQ adds issue-queue resizing (§3.3.2).
	TSASVQ
	// TSASVQFU adds FU replication (§3.3.1) — the paper's preferred
	// configuration.
	TSASVQFU
	// All enables every technique including ABB.
	All
	// NoVar: idealized plain processor with no variation effects.
	NoVar
	NumEnvironments // sentinel
)

// String names the environment as Table 1 does.
func (e Environment) String() string {
	switch e {
	case Baseline:
		return "Baseline"
	case TS:
		return "TS"
	case TSASV:
		return "TS+ASV"
	case TSASVABB:
		return "TS+ASV+ABB"
	case TSASVQ:
		return "TS+ASV+Q"
	case TSASVQFU:
		return "TS+ASV+Q+FU"
	case All:
		return "ALL"
	case NoVar:
		return "NoVar"
	default:
		return fmt.Sprintf("Environment(%d)", int(e))
	}
}

// Config returns the technique configuration of the environment.
// Baseline and NoVar have no checker and no techniques.
func (e Environment) Config() tech.Config {
	switch e {
	case TS:
		return tech.Config{TimingSpec: true}
	case TSASV:
		return tech.Config{TimingSpec: true, ASV: true}
	case TSASVABB:
		return tech.Config{TimingSpec: true, ASV: true, ABB: true}
	case TSASVQ:
		return tech.Config{TimingSpec: true, ASV: true, QueueResize: true}
	case TSASVQFU:
		return tech.Config{TimingSpec: true, ASV: true, QueueResize: true, FUReplication: true}
	case All:
		return tech.Config{TimingSpec: true, ASV: true, ABB: true, QueueResize: true, FUReplication: true}
	default:
		return tech.Config{}
	}
}

// coreConfig is the technique configuration an environment's core is
// built with: Baseline and NoVar, which have no checker, are modeled with
// a plain TS config for machinery purposes (their run functions never
// exploit error tolerance).
func (e Environment) coreConfig() tech.Config {
	if cfg := e.Config(); cfg.TimingSpec {
		return cfg
	}
	return tech.Config{TimingSpec: true}
}

// Adaptive reports whether the environment supports dynamic adaptation.
func (e Environment) Adaptive() bool {
	return e != Baseline && e != NoVar
}

// AdaptiveEnvironments lists the six environments of Figures 10-12 that
// take Static/Fuzzy-Dyn/Exh-Dyn bars.
func AdaptiveEnvironments() []Environment {
	return []Environment{TS, TSASV, TSASVABB, TSASVQ, TSASVQFU, All}
}

// Mode selects how an adaptive environment picks its configuration.
type Mode int

const (
	// Static: one conservative configuration per chip, chosen at test time
	// for worst-case per-class behavior, never changed at run time.
	Static Mode = iota
	// FuzzyDyn: per-phase dynamic adaptation with the fuzzy controllers.
	FuzzyDyn
	// ExhDyn: per-phase dynamic adaptation with the Exhaustive reference.
	ExhDyn
	NumModes // sentinel
)

// String names the mode as the figures do.
func (m Mode) String() string {
	switch m {
	case Static:
		return "Static"
	case FuzzyDyn:
		return "Fuzzy-Dyn"
	case ExhDyn:
		return "Exh-Dyn"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Options configures a Simulator.
type Options struct {
	Varius   varius.Params
	Power    power.Params
	Thermal  thermal.Params
	Checker  checker.Config
	Limits   adapt.Limits
	TraceLen int // instructions per phase profile
}

// DefaultOptions returns the Figure 7 evaluation machine.
func DefaultOptions() Options {
	return Options{
		Varius:   varius.DefaultParams(),
		Power:    power.DefaultParams(),
		Thermal:  thermal.DefaultParams(),
		Checker:  checker.DefaultConfig(),
		Limits:   adapt.DefaultLimits(),
		TraceLen: pipeline.DefaultTraceLen,
	}
}

// Simulator owns the shared models and caches of one evaluation setup.
// It is safe for concurrent use by multiple goroutines.
type Simulator struct {
	opts Options
	gen  *varius.Generator
	fp   *floorplan.Floorplan
	pw   *power.Model
	th   *thermal.Model

	// Observability sinks; all nil (disabled, zero-cost) by default.
	obs       *obs.Registry
	tracer    *obs.Tracer
	progressW io.Writer

	// store, when non-nil, persists chips, profiles, and trained solvers
	// across processes (see cache.go and the artifact package).
	store *artifact.Store
	// machineBlocks (tech.Config → []byte) and appEncodings (app name →
	// *encodedApp) hold the encoded pieces the apprun, profile, staticpt
	// and solver key pre-images are spliced from (see appRunKey).
	machineBlocks sync.Map
	appEncodings  sync.Map

	mu       sync.Mutex
	profiles map[profileID]pipeline.Profile
}

type profileID struct {
	app   string
	trace string
	phase int
}

// NewSimulator validates the options and builds the shared models.
func NewSimulator(opts Options) (*Simulator, error) {
	gen, err := varius.NewGenerator(opts.Varius)
	if err != nil {
		return nil, err
	}
	fp, err := floorplan.Default(opts.Varius.CoreSide)
	if err != nil {
		return nil, err
	}
	pw, err := power.NewModel(fp, opts.Varius, opts.Power)
	if err != nil {
		return nil, err
	}
	th, err := thermal.NewModel(fp, opts.Varius, pw, opts.Thermal)
	if err != nil {
		return nil, err
	}
	if err := opts.Checker.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Limits.Validate(); err != nil {
		return nil, err
	}
	if opts.TraceLen <= 0 {
		opts.TraceLen = pipeline.DefaultTraceLen
	}
	return &Simulator{
		opts:     opts,
		gen:      gen,
		fp:       fp,
		pw:       pw,
		th:       th,
		profiles: make(map[profileID]pipeline.Profile),
	}, nil
}

// Options returns the simulator's configuration.
func (s *Simulator) Options() Options { return s.opts }

// SetObs attaches a metrics registry; the engine records per-stage
// timers, outcome counters, and worker occupancy into it. A nil registry
// (the default) disables metrics at zero cost.
func (s *Simulator) SetObs(r *obs.Registry) { s.obs = r }

// SetTracer attaches a span tracer recording nested chip → app → phase
// timing; nil disables tracing.
func (s *Simulator) SetTracer(t *obs.Tracer) { s.tracer = t }

// SetProgressWriter makes the multi-chip experiments render live
// per-worker progress to w (normally os.Stderr); nil disables it.
func (s *Simulator) SetProgressWriter(w io.Writer) { s.progressW = w }

// Floorplan returns the core floorplan.
func (s *Simulator) Floorplan() *floorplan.Floorplan { return s.fp }

// Chip generates chip seed's variation maps (seed < 0 gives the NoVar
// chip). With an artifact store attached the maps are persisted per
// (varius.Params, seed) and later calls — in this or any process — load
// the stored die instead of re-sampling it.
func (s *Simulator) Chip(seed int64) *varius.ChipMaps {
	if seed < 0 {
		return s.gen.NoVarChip()
	}
	chip, _ := cached(s.store, chipKind, s.chipKey(seed), decodeChip, (*varius.ChipMaps).MarshalBinary,
		func() (*varius.ChipMaps, error) { return s.gen.Chip(seed), nil })
	return chip
}

// BuildCore assembles the adaptation view of one chip under an
// environment's technique configuration (see coreConfig for Baseline and
// NoVar): per-subsystem stage models and leakage-effective Vt0 constants
// over the shared power and thermal models.
func (s *Simulator) BuildCore(chip *varius.ChipMaps, env Environment) (*adapt.Core, error) {
	subs := make([]adapt.Subsystem, s.fp.N())
	for i, sub := range s.fp.Subsystems {
		stage, err := vats.NewStage(sub, chip, s.opts.Varius)
		if err != nil {
			return nil, err
		}
		_, _, leakEff := chip.RegionVtStats(sub.Rect, s.opts.Varius)
		subs[i] = adapt.Subsystem{Index: i, Sub: sub, Stage: stage, Vt0EffV: leakEff}
	}
	core, err := adapt.NewCore(subs, s.pw, s.th, s.opts.Checker, env.coreConfig(), s.opts.Limits)
	if err != nil {
		return nil, err
	}
	core.Obs = s.obs
	return core, nil
}

// Profile returns the (cached) measured profile of one application phase.
func (s *Simulator) Profile(app workload.App, ph workload.Phase) (pipeline.Profile, error) {
	key := profileID{app: app.Name, trace: app.Trace, phase: ph.Index}
	s.mu.Lock()
	if p, ok := s.profiles[key]; ok {
		s.mu.Unlock()
		s.obs.Counter("core.profile.cache_hits").Inc()
		return p, nil
	}
	s.mu.Unlock()
	// Build outside the lock; profiles are deterministic, so a racing
	// duplicate build writes an identical value. buildProfile goes through
	// the artifact store when one is attached.
	p, err := s.buildProfile(app, ph)
	if err != nil {
		return pipeline.Profile{}, err
	}
	s.mu.Lock()
	s.profiles[key] = p
	s.mu.Unlock()
	return p, nil
}

// profileSeed derives a stable trace seed per (app, phase).
func profileSeed(name string, phase int) int64 {
	h := int64(1469598103934665603)
	for _, b := range []byte(name) {
		h = (h ^ int64(b)) * 1099511628211
	}
	return h ^ int64(phase)<<32
}
