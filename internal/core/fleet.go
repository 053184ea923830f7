package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/adapt"
	"repro/internal/tech"
	"repro/internal/varius"
	"repro/internal/vats"
	"repro/internal/workload"
)

// This file holds ChipHandle, the one owner of a die's per-chip state:
// variation maps, stage models, and the shared PE-table donor, behind an
// explicit acquire/release lifetime. The fleet service acquires and
// releases handles as join/leave events arrive; each experiment
// (RunSummary, RunOutcomes, RunTable2) acquires one per chip on the
// chip's first unit and releases them all after its pool. Everything
// derived per technique configuration — fuzzy controllers, per training
// option set, and static operating points, per class — is memoized on
// the handle and built once per key.

// ChipHandle is one admitted chip's shared state. The immutable parts
// (maps, stage models, FVar) are built once by AcquireChip and then read
// concurrently; mu guards only the memo maps, never a build (see
// onceEntry); the donor's PE-table store is concurrency-safe by
// construction (see the adapt package comment).
type ChipHandle struct {
	seed  int64
	chip  *varius.ChipMaps
	donor *adapt.Core
	fvar  float64

	mu      sync.Mutex
	solvers map[string]*chipSolver // by name (solverKey)
	statics map[staticKey]*onceEntry[adapt.OperatingPoint]
}

type staticKey struct {
	cfg   tech.Config
	class workload.Class
}

// onceEntry is one lazily built value: the first caller of get builds it
// and every other caller waits on the entry's sync.Once, so entries of
// different keys build concurrently. A build error is kept like a value.
type onceEntry[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (e *onceEntry[T]) get(build func() (T, error)) (T, error) {
	e.once.Do(func() { e.val, e.err = build() })
	return e.val, e.err
}

// entryFor returns m's entry for k, adding an empty one under mu; the
// lock covers the map only, never the entry's build.
func entryFor[K comparable, T any](mu *sync.Mutex, m map[K]*onceEntry[T], k K) *onceEntry[T] {
	mu.Lock()
	defer mu.Unlock()
	e := m[k]
	if e == nil {
		e = new(onceEntry[T])
		m[k] = e
	}
	return e
}

// Seed returns the handle's generator seed.
func (h *ChipHandle) Seed() int64 { return h.seed }

// FVar returns the chip's worst-case-safe relative frequency — the
// Baseline environment's clock.
func (h *ChipHandle) FVar() float64 { return h.fvar }

// AcquireChip builds (or loads) one chip's handle: variation maps,
// stage-model assembly, the PE-table donor, and the worst-case-safe
// frequency. The stages are built once, for the donor, and the FVar is
// taken from them (ChipFVar's minimum, through the certified PE kernel).
// The donor's tables are not read here: the chip's petables record is
// registered as the store's deferred source, which the first table miss
// imports (see adapt.Core.DeferPETables), so a chip whose units all
// replay from the artifact cache never reads, decodes or allocates
// them. Release with ReleaseChip to write built tables back.
func (s *Simulator) AcquireChip(seed int64) (*ChipHandle, error) {
	defer s.obs.Timer("core.chip_prep").Start().Stop()
	h := &ChipHandle{
		seed:    seed,
		chip:    s.Chip(seed),
		solvers: make(map[string]*chipSolver),
		statics: make(map[staticKey]*onceEntry[adapt.OperatingPoint]),
	}
	// The donor holds the chip's stage-model assembly and shared PE-table
	// store; every configuration's core derives from it (see core), so its
	// own configuration is irrelevant.
	var err error
	if h.donor, err = s.BuildCore(h.chip, TS); err != nil {
		return nil, err
	}
	h.donor.DeferPETables(func() []adapt.PETableSlot { return s.loadPETables(seed) })
	stages := make([]*vats.Stage, len(h.donor.Subs))
	for i := range stages {
		stages[i] = h.donor.Subs[i].Stage
	}
	h.fvar = s.stagesFVar(stages)
	return h, nil
}

// ReleaseChip retires a handle, persisting the chip's PE-fmax tables if
// its units built any beyond the imported record. The handle must be
// quiescent (no unit still running on its cores).
func (s *Simulator) ReleaseChip(h *ChipHandle) {
	if h == nil {
		return
	}
	s.storePETables(h.donor, h.seed)
}

// core derives a core for cfg over the handle's stage models and PE-table
// store, with memos and scratch of its own. cfg may lie outside Table 1
// (the Figure 13 and Table 2 grids).
func (h *ChipHandle) core(cfg tech.Config) (*adapt.Core, error) {
	return h.donor.WithConfig(cfg)
}

// HandleCore assembles the environment's core over the handle's shared
// stage models and PE-table store. Cores are cheap relative to the
// handle; the fleet keeps one per (chip, environment), driven only by
// the chip's owner worker.
func (s *Simulator) HandleCore(h *ChipHandle, env Environment) (*adapt.Core, error) {
	return h.core(env.coreConfig())
}

// HandleSolver returns the chip's fuzzy controllers for cpu's technique
// configuration and opts, and their name: the key of their solver record
// (solverKey), which keys every unit they answer. Nothing is read or
// trained here: a unit that misses loads the controllers, through the
// artifact cache, before its first solve (see chipSolver), so a unit that
// replays from the store never touches them. The handle memoizes one
// controller set per name, so every caller of one (configuration,
// options) pair shares a single load, and another option set gets its
// own controllers under its own name.
func (s *Simulator) HandleSolver(h *ChipHandle, cpu *adapt.Core, opts adapt.TrainOptions) (adapt.Solver, string, error) {
	if err := opts.Validate(); err != nil {
		return nil, "", err
	}
	name := s.solverKey(cpu.Config, []int64{h.seed}, opts)
	if name == "" {
		return nil, "", fmt.Errorf("core: no solver key for configuration %+v: its key material does not encode", cpu.Config)
	}
	cfg := cpu.Config
	h.mu.Lock()
	defer h.mu.Unlock()
	sv := h.solvers[name]
	if sv == nil {
		sv = &chipSolver{name: name, train: func() (*adapt.FuzzySolver, error) {
			defer s.obs.Timer("core.fuzzy_train").Start().Stop()
			core, err := h.core(cfg)
			if err != nil {
				return nil, err
			}
			return s.TrainFuzzyCached([]*adapt.Core{core}, []int64{h.seed}, opts)
		}}
		h.solvers[name] = sv
	}
	return sv, name, nil
}

// chipSolver is one chip's fuzzy controllers for one technique
// configuration and training option set, named by their solver record
// key. Training is deterministic for a given key (a change to its output
// bumps the solver kind's version, which moves the key), so the name
// identifies the controllers as exactly as their weights do. load reads
// or trains them once, on the first unit that misses. Training drives a
// core of its own over the handle's PE-table store: Freq and Power
// solves touch no per-core state a unit reads, so the controllers are
// the same whichever unit loads them, and the handle keeps no unit's
// core alive.
type chipSolver struct {
	name  string
	train func() (*adapt.FuzzySolver, error)
	entry onceEntry[*adapt.FuzzySolver]
}

// load returns the controllers, reading or training them on first use.
func (c *chipSolver) load() (*adapt.FuzzySolver, error) { return c.entry.get(c.train) }

// loaded returns the controllers for a caller that solves with c
// directly. UnitAppRun and the Figure 13 and Table 2 units never do:
// they load the controllers before the unit's first solve and return a
// load error as the unit's, so none is read or trained inside a
// controller invocation. HandleSolver has validated the options, so a
// load that fails here is a training fault, reported as a panic.
func (c *chipSolver) loaded() *adapt.FuzzySolver {
	sv, err := c.load()
	if err != nil {
		panic(fmt.Sprintf("core: loading fuzzy controllers: %v", err))
	}
	return sv
}

// FreqMax implements adapt.Solver with the loaded controllers.
func (c *chipSolver) FreqMax(cpu *adapt.Core, i int, q adapt.FreqQuery) float64 {
	return c.loaded().FreqMax(cpu, i, q)
}

// PowerLevels implements adapt.Solver with the loaded controllers.
func (c *chipSolver) PowerLevels(cpu *adapt.Core, i int, fCore float64, q adapt.FreqQuery) (float64, float64) {
	return c.loaded().PowerLevels(cpu, i, fCore, q)
}

// unitSolver returns what a unit that misses solves with: a chip's fuzzy
// controllers, loaded, or any other solver as it is.
func unitSolver(solver adapt.Solver) (adapt.Solver, error) {
	if c, ok := solver.(*chipSolver); ok {
		sv, err := c.load()
		if err != nil {
			return nil, err
		}
		return sv, nil
	}
	return solver, nil
}

// HandleStaticPoint returns the chip's conservative static operating
// point for cpu's configuration and the app's class, choosing it
// (through the artifact cache) on first use. A stored point cpu could
// not evaluate is rebuilt as corrupt. The memo assumes one app set per
// handle lifetime.
func (s *Simulator) HandleStaticPoint(h *ChipHandle, cpu *adapt.Core, class workload.Class, apps []workload.App) (adapt.OperatingPoint, error) {
	e := entryFor(&h.mu, h.statics, staticKey{cfg: cpu.Config, class: class})
	return e.get(func() (adapt.OperatingPoint, error) {
		key := s.staticPointKey(h.seed, cpu.Config, class, apps)
		decode := func(payload []byte, p *adapt.OperatingPoint) error { return decodePoint(payload, p, cpu.N()) }
		return cached(s.store, staticptKind, key, decode, infallible(encodePoint),
			func() (adapt.OperatingPoint, error) { return s.StaticPoint(cpu, class, apps) })
	})
}

// FleetUnit is one schedulable simulation unit: an application, and
// either one phase of it (Phase is the position in App.Phases) or the
// whole phase-weighted app (Phase < 0).
type FleetUnit struct {
	App   workload.App
	Phase int
	// Static is the operating point for Static-mode units (nil
	// otherwise).
	Static *adapt.OperatingPoint
}

// UnitAppRun executes one fleet unit on cpu — through the apprun
// artifact cache, at phase granularity when the unit names a phase. For
// dynamic modes solver picks the algorithm (its name keys the cache, see
// solverName); Static mode requires u.Static. A chip's fuzzy controllers
// (HandleSolver) are loaded only when the unit misses, before its first
// solve. The returned run's CacheHit reports whether this call served it
// from the store: a missing, damaged or undecodable record, or an
// uncacheable unit, reads false.
func (s *Simulator) UnitAppRun(seed int64, cpu *adapt.Core, mode Mode, solver adapt.Solver, u FleetUnit) (AppRun, error) {
	name := ""
	switch mode {
	case Static:
		if u.Static == nil {
			return AppRun{}, fmt.Errorf("core: static fleet unit %q needs an operating point", u.App.Name)
		}
	case FuzzyDyn, ExhDyn:
		name = solverName(solver)
	default:
		return AppRun{}, fmt.Errorf("core: fleet unit mode %v", mode)
	}
	if u.Phase >= len(u.App.Phases) {
		return AppRun{}, fmt.Errorf("core: %q has no phase %d", u.App.Name, u.Phase)
	}
	key := s.appRunKey(seed, cpu.Config, u.App, mode, name, u.Static, u.Phase)
	return cached(s.store, apprunKind, key,
		func(payload []byte, r *AppRun) error {
			if err := decodeAppRun(payload, r); err != nil {
				return err
			}
			r.CacheHit = true
			return nil
		},
		infallible(encodeAppRun),
		func() (AppRun, error) {
			sv, err := unitSolver(solver)
			if err != nil {
				return AppRun{}, err
			}
			return s.runUnit(cpu, mode, sv, u)
		})
}

// runUnit adapts the unit's phases on cpu in order and folds them into
// one run: every phase of the app at its own weight, or only the named
// phase at weight 1 (the fleet's phase-change event granularity).
// Dynamic modes solve each phase with solver; Static mode retunes around
// u.Static.
func (s *Simulator) runUnit(cpu *adapt.Core, mode Mode, solver adapt.Solver, u FleetUnit) (AppRun, error) {
	env, err := envOfConfig(cpu.Config)
	if err != nil {
		return AppRun{}, err
	}
	phases := u.App.Phases
	if u.Phase >= 0 {
		phases = phases[u.Phase : u.Phase+1]
	}
	run := AppRun{App: u.App.Name, Env: env, Mode: mode}
	for _, ph := range phases {
		prof, err := s.Profile(u.App, ph)
		if err != nil {
			return AppRun{}, err
		}
		phaseSW := s.obs.Timer("core.phase.adapt").Start()
		var res adapt.RetuneResult
		if mode == Static {
			res, err = staticRetune(cpu, *u.Static, prof)
		} else {
			res, err = cpu.AdaptSteady(prof, solver)
		}
		phaseSW.Stop()
		if err != nil {
			return AppRun{}, fmt.Errorf("core: %s %s phase %d: %w", env, u.App.Name, ph.Index, err)
		}
		weight := ph.Weight
		if u.Phase >= 0 {
			weight = 1
		}
		accumulate(&run, weight, res)
	}
	return run, nil
}

// ParseEnvironment resolves a Table 1 environment name ("TS+ASV+Q+FU",
// case-insensitive) to its Environment.
func ParseEnvironment(name string) (Environment, error) {
	for e := Environment(0); e < NumEnvironments; e++ {
		if strings.EqualFold(name, e.String()) {
			return e, nil
		}
	}
	return 0, fmt.Errorf("core: unknown environment %q", name)
}

// ParseMode resolves a mode name: "static", "fuzzy"/"fuzzy-dyn",
// "exh"/"exh-dyn" (case-insensitive).
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "static":
		return Static, nil
	case "fuzzy", "fuzzy-dyn":
		return FuzzyDyn, nil
	case "exh", "exh-dyn":
		return ExhDyn, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %q", name)
	}
}
