package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/adapt"
	"repro/internal/floorplan"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/varius"
	"repro/internal/vats"
	"repro/internal/workload"
)

// ExperimentConfig scales the multi-chip experiments. The paper uses 100
// chips and the 26-application SPEC 2000 suite; the defaults here are a
// smaller but shape-preserving budget suitable for iterating (raise Chips
// and use the full suite for paper-scale runs).
type ExperimentConfig struct {
	// Chips is the number of evaluation chips (the paper uses 100).
	Chips int
	// SeedBase offsets the evaluation chip seeds.
	SeedBase int64
	// TrainChips is the number of *distinct* chips used to train the fuzzy
	// controllers (never overlapping the evaluation chips).
	TrainChips int
	// Apps selects proxy-suite applications by name (nil = the full
	// 26-app suite, unless Workloads is set).
	Apps []string
	// Workloads supplies the applications directly — generated clients or
	// trace-replayed apps (see Simulator.GeneratedApps and
	// workload.TraceV1.Lower). Mutually exclusive with Apps.
	Workloads []workload.App
	// Envs selects the adaptive environments (nil = all six of Table 1).
	Envs []Environment
	// Modes selects adaptation modes (nil = Static, Fuzzy-Dyn, Exh-Dyn).
	Modes []Mode
	// Training configures fuzzy-controller training.
	Training adapt.TrainOptions
	// Workers bounds experiment parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultExperimentConfig returns a laptop-scale configuration.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Chips:      10,
		SeedBase:   1000,
		TrainChips: 2,
		Training:   adapt.DefaultTrainOptions(),
	}
}

// resolve fills defaults.
func (c ExperimentConfig) resolve() (ExperimentConfig, []workload.App, error) {
	if c.Chips < 1 {
		return c, nil, fmt.Errorf("core: Chips %d must be >= 1", c.Chips)
	}
	if c.TrainChips < 1 {
		c.TrainChips = 1
	}
	if len(c.Envs) == 0 {
		c.Envs = AdaptiveEnvironments()
	}
	for _, e := range c.Envs {
		if !e.Adaptive() {
			return c, nil, fmt.Errorf("core: %v is not an adaptive environment", e)
		}
	}
	if len(c.Modes) == 0 {
		c.Modes = []Mode{Static, FuzzyDyn, ExhDyn}
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	var apps []workload.App
	switch {
	case len(c.Workloads) > 0:
		if len(c.Apps) > 0 {
			return c, nil, fmt.Errorf("core: Apps and Workloads are mutually exclusive")
		}
		apps = c.Workloads
	case len(c.Apps) == 0:
		apps = workload.Suite()
	default:
		for _, name := range c.Apps {
			a, err := workload.ByName(name)
			if err != nil {
				return c, nil, err
			}
			apps = append(apps, a)
		}
	}
	return c, apps, nil
}

// Cell is one (environment, mode) aggregate of Figures 10-12.
type Cell struct {
	Env  Environment
	Mode Mode
	// FRel is the mean relative frequency (Figure 10's bar).
	FRel float64
	// PerfR is the mean performance relative to NoVar (Figure 11's bar).
	PerfR float64
	// PowerW is the mean processor power (Figure 12's bar).
	PowerW float64
	// PE is the mean error rate per instruction.
	PE float64
	// Outcome fractions across controller invocations (Figure 13 inputs).
	Outcomes [adapt.NumOutcomes]float64
	// SmallQueueFrac / LowSlopeFrac: how often the techniques engage.
	SmallQueueFrac float64
	LowSlopeFrac   float64
}

// Summary aggregates the headline experiment: every adaptive environment
// and mode, plus the Baseline and NoVar anchors.
type Summary struct {
	Chips int
	Apps  []string
	// BaselineFRel is the mean worst-case-safe frequency (the 0.78 line).
	BaselineFRel   float64
	BaselinePerfR  float64
	BaselinePowerW float64
	NoVarPowerW    float64
	Cells          []Cell
}

// CellFor finds the cell of an (environment, mode) pair.
func (s *Summary) CellFor(env Environment, mode Mode) (Cell, error) {
	for _, c := range s.Cells {
		if c.Env == env && c.Mode == mode {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("core: summary has no cell %v/%v", env, mode)
}

// RunSummary executes the Figures 10-12 experiment.
func (s *Simulator) RunSummary(cfg ExperimentConfig) (*Summary, error) {
	cfg, apps, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Training.Obs == nil {
		cfg.Training.Obs = s.obs
	}
	defer s.obs.Timer("core.run_summary").Start().Stop()
	s.prefetchArtifacts(cfg, apps)

	// NoVar reference per app.
	novarSW := s.obs.Timer("core.novar_refs").Start()
	noVarPerf := make(map[string]float64, len(apps))
	noVarPower := 0.0
	for _, app := range apps {
		r, err := s.RunNoVar(app)
		if err != nil {
			return nil, err
		}
		noVarPerf[app.Name] = r.Perf
		noVarPower += r.PowerW
	}
	noVarPower /= float64(len(apps))
	novarSW.Stop()

	needFuzzy := false
	for _, m := range cfg.Modes {
		if m == FuzzyDyn {
			needFuzzy = true
		}
	}

	// The work queue holds (chip × environment) units: at small chip
	// counts a per-chip fan-out leaves workers idle while the last chip
	// grinds through all six environments, whereas units keep the pool
	// busy to the tail. Per-chip state (stage models, PE-table donor,
	// Baseline anchors) builds once under the chip's sync.Once and is
	// then shared read-only by that chip's units.
	nEnvs := len(cfg.Envs)
	nUnits := cfg.Chips * nEnvs
	var prog *obs.Progress
	if s.progressW != nil {
		prog = obs.NewProgress(s.progressW, "chip×env", nUnits, min(cfg.Workers, nUnits))
		defer prog.Stop()
	}

	shared := make([]chipShared, cfg.Chips)
	type unitResult struct {
		cells *cellMap
		err   error
	}
	results := make([]unitResult, nUnits)
	obs.RunPool(s.obs, "core.pool", cfg.Workers, nUnits, func(slot, u int) {
		ci, ei := u/nEnvs, u%nEnvs
		seed := cfg.SeedBase + int64(ci)
		env := cfg.Envs[ei]
		prog.SetWorker(slot, fmt.Sprintf("chip %d %v", seed, env))
		sh := &shared[ci]
		sh.once.Do(func() {
			defer s.obs.Timer("core.chip_prep").Start().Stop()
			sh.init(s, apps, noVarPerf, seed)
		})
		if sh.err == nil {
			unitSW := s.obs.Timer("core.unit").Start()
			cells, err := s.runChipEnv(cfg, apps, noVarPerf, needFuzzy, sh, env, seed)
			unitSW.Stop()
			results[u] = unitResult{cells: cells, err: err}
		}
		prog.SetWorker(slot, "idle")
		prog.Step(1)
	})

	sum := &Summary{Chips: cfg.Chips, NoVarPowerW: noVarPower}
	for _, a := range apps {
		sum.Apps = append(sum.Apps, a.Name)
	}
	// Index-ordered reduction: baselines fold chips-ascending and cells
	// fold (chip, env)-ascending, so every float accumulates in the same
	// order regardless of how the pool scheduled the units.
	agg := make(map[cellKey]*cellAccum)
	for ci := range shared {
		if shared[ci].err != nil {
			return nil, shared[ci].err
		}
		// All units are done, so the donor's table store is quiescent:
		// persist any tables this run built beyond the imported entry.
		s.storePETables(shared[ci].donor, cfg.SeedBase+int64(ci), shared[ci].petables)
		sum.BaselineFRel += shared[ci].baseF / float64(cfg.Chips)
		sum.BaselinePerfR += shared[ci].basePerfR / float64(cfg.Chips)
		sum.BaselinePowerW += shared[ci].basePower / float64(cfg.Chips)
	}
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		if r.cells == nil {
			continue
		}
		for _, k := range r.cells.keys {
			if agg[k] == nil {
				agg[k] = &cellAccum{}
			}
			agg[k].fold(r.cells.m[k])
		}
	}
	for _, env := range cfg.Envs {
		for _, mode := range cfg.Modes {
			k := cellKey{env: env, mode: mode}
			a, ok := agg[k]
			if !ok {
				continue
			}
			sum.Cells = append(sum.Cells, a.cell(env, mode))
		}
	}
	return sum, nil
}

// chipShared is the per-chip state shared by that chip's (chip × env)
// work units: the stage-model assembly, the PE-fmax-table donor core, and
// the Baseline anchors. The first unit to touch the chip builds all of it
// under the chip's sync.Once; afterwards the units read it concurrently —
// the stage models are immutable and the donor's table store publishes
// lazy builds atomically (see the adapt package comment).
type chipShared struct {
	once sync.Once
	err  error
	// donor holds the chip's stage-model assembly and shared PE-table
	// store; every environment's core derives from it by WithConfig, so
	// its own technique configuration is irrelevant.
	donor *adapt.Core
	// petables counts the PE-fmax tables seeded into the donor from the
	// artifact cache, so the reduction only writes the entry back when the
	// run built tables beyond it.
	petables                    int
	baseF, basePerfR, basePower float64
}

func (sh *chipShared) init(s *Simulator, apps []workload.App, noVarPerf map[string]float64, seed int64) {
	var span *obs.Span
	if s.tracer != nil {
		span = s.tracer.Start(fmt.Sprintf("chip %d prep", seed))
		defer span.End()
	}
	chip := s.Chip(seed)
	subs, err := s.buildSubsystems(chip)
	if err != nil {
		sh.err = err
		return
	}
	if sh.donor, err = s.coreFromSubsystems(subs, tech.Config{TimingSpec: true}); err != nil {
		sh.err = err
		return
	}
	sh.petables = s.loadPETables(sh.donor, seed)
	if sh.baseF, err = s.ChipFVar(chip); err != nil {
		sh.err = err
		return
	}
	baseSpan := span.Child("baseline")
	// RunBaseline per app would recompute the chip's fvar (15 FVar
	// bisections) and Vt0 extraction every time; both are per-chip.
	vt0 := s.chipVt0Effs(chip)
	for _, app := range apps {
		r, err := s.runFixed(app, sh.baseF, Baseline, vt0)
		if err != nil {
			sh.err = err
			return
		}
		sh.basePerfR += r.Perf / noVarPerf[app.Name] / float64(len(apps))
		sh.basePower += r.PowerW / float64(len(apps))
	}
	baseSpan.End()
}

// cellMap is an insertion-ordered map of cell accumulators: iteration
// follows first-insertion order so the reduction in RunSummary visits
// keys the way the serial loop produced them.
type cellMap struct {
	keys []cellKey
	m    map[cellKey]*cellAccum
}

func newCellMap() *cellMap {
	return &cellMap{m: make(map[cellKey]*cellAccum)}
}

func (c *cellMap) at(k cellKey) *cellAccum {
	a, ok := c.m[k]
	if !ok {
		a = &cellAccum{}
		c.m[k] = a
		c.keys = append(c.keys, k)
	}
	return a
}

// TrainSolver trains fuzzy controllers for one environment across
// TrainChips dedicated chips — the *fleet-trained* variant used to study
// how well one controller set generalizes across dies. The paper's system
// (and RunSummary/RunOutcomes/RunTable2) trains per chip instead, on a
// software model of the specific die (§4.3.1).
func (s *Simulator) TrainSolver(env Environment, cfg ExperimentConfig) (*adapt.FuzzySolver, error) {
	if cfg.TrainChips < 1 {
		cfg.TrainChips = 1
	}
	if cfg.Training.Obs == nil {
		cfg.Training.Obs = s.obs
	}
	defer s.obs.Timer("core.fuzzy_train").Start().Stop()
	var cores []*adapt.Core
	var seeds []int64
	for t := 0; t < cfg.TrainChips; t++ {
		seed := cfg.SeedBase + 1_000_000 + int64(t)
		chip := s.Chip(seed)
		core, err := s.BuildCore(chip, env)
		if err != nil {
			return nil, err
		}
		cores = append(cores, core)
		seeds = append(seeds, seed)
	}
	return s.TrainFuzzyCached(cores, seeds, cfg.Training)
}

type cellKey struct {
	env  Environment
	mode Mode
}

// cellAccum accumulates app-run metrics.
type cellAccum struct {
	n                   float64
	f, perfR, power, pe float64
	outcomes            [adapt.NumOutcomes]float64
	outcomeTotal        float64
	smallQ, lowFU       float64
}

func (a *cellAccum) add(run AppRun, noVarPerf float64) {
	a.n++
	a.f += run.FRel
	if noVarPerf > 0 {
		a.perfR += run.Perf / noVarPerf
	}
	a.power += run.PowerW
	a.pe += run.PE
	for o, cnt := range run.Outcomes {
		a.outcomes[o] += float64(cnt)
		a.outcomeTotal += float64(cnt)
	}
	a.smallQ += run.SmallQueueFrac
	a.lowFU += run.LowSlopeFrac
}

func (a *cellAccum) fold(b *cellAccum) {
	a.n += b.n
	a.f += b.f
	a.perfR += b.perfR
	a.power += b.power
	a.pe += b.pe
	for o := range a.outcomes {
		a.outcomes[o] += b.outcomes[o]
	}
	a.outcomeTotal += b.outcomeTotal
	a.smallQ += b.smallQ
	a.lowFU += b.lowFU
}

func (a *cellAccum) cell(env Environment, mode Mode) Cell {
	c := Cell{Env: env, Mode: mode}
	if a.n > 0 {
		c.FRel = a.f / a.n
		c.PerfR = a.perfR / a.n
		c.PowerW = a.power / a.n
		c.PE = a.pe / a.n
		c.SmallQueueFrac = a.smallQ / a.n
		c.LowSlopeFrac = a.lowFU / a.n
	}
	if a.outcomeTotal > 0 {
		for o := range c.Outcomes {
			c.Outcomes[o] = a.outcomes[o] / a.outcomeTotal
		}
	}
	return c
}

// runChipEnv executes one (chip × environment) work unit: builds the
// environment's core over the chip's shared stage models and PE-table
// store, trains this chip's controllers if the Fuzzy-Dyn mode needs them,
// and runs every mode × app of the cell. The chip's cores run on whatever
// worker goroutine the unit lands on; only the concurrency-safe table
// store is shared between units.
func (s *Simulator) runChipEnv(cfg ExperimentConfig, apps []workload.App,
	noVarPerf map[string]float64, needFuzzy bool,
	sh *chipShared, env Environment, seed int64) (*cellMap, error) {
	var envSpan *obs.Span
	if s.tracer != nil {
		envSpan = s.tracer.Start(fmt.Sprintf("chip %d %v", seed, env))
		defer envSpan.End()
	}
	cfg0 := env.Config()
	if !cfg0.TimingSpec {
		cfg0 = tech.Config{TimingSpec: true}
	}
	core, err := sh.donor.WithConfig(cfg0)
	if err != nil {
		return nil, err
	}
	// Per-chip fuzzy training: the manufacturer populates this chip's
	// controllers by running the Exhaustive algorithm on a software
	// model of *this* chip (§4.3.1).
	var solver *adapt.FuzzySolver
	fuzzyFP := ""
	if needFuzzy {
		trainSpan := envSpan.Child("train solver")
		trainSW := s.obs.Timer("core.fuzzy_train").Start()
		if solver, err = s.TrainFuzzyCached([]*adapt.Core{core}, []int64{seed}, cfg.Training); err != nil {
			return nil, err
		}
		trainSW.Stop()
		trainSpan.End()
		fuzzyFP = solverFingerprint(solver)
	}
	// Static points per class, chosen once per chip — only for classes the
	// app set actually contains, so single-class workload sets (a common
	// shape for generated scenarios) run Static without error.
	var staticInt, staticFP adapt.OperatingPoint
	hasStatic := false
	for _, m := range cfg.Modes {
		if m == Static {
			hasStatic = true
		}
	}
	if hasStatic {
		hasInt, hasFP := false, false
		for _, a := range apps {
			if a.Class == workload.FP {
				hasFP = true
			} else {
				hasInt = true
			}
		}
		if hasInt {
			if staticInt, err = s.cachedStaticPoint(core, workload.Int, apps, seed); err != nil {
				return nil, err
			}
		}
		if hasFP {
			if staticFP, err = s.cachedStaticPoint(core, workload.FP, apps, seed); err != nil {
				return nil, err
			}
		}
	}
	cells := newCellMap()
	for _, mode := range cfg.Modes {
		acc := cells.at(cellKey{env: env, mode: mode})
		cellSW := s.obs.Timer("core.cell").Start()
		modeSpan := envSpan.Child(mode.String())
		for _, app := range apps {
			appSpan := modeSpan.Child(app.Name)
			appSW := s.obs.Timer("core.app_run").Start()
			var run AppRun
			switch mode {
			case Static:
				point := staticInt
				if app.Class == workload.FP {
					point = staticFP
				}
				run, err = s.cachedAppRun(seed, core, app, Static, "", &point, -1,
					func() (AppRun, error) { return s.RunStatic(core, app, point) })
			case FuzzyDyn:
				run, err = s.cachedAppRun(seed, core, app, FuzzyDyn, fuzzyFP, nil, -1,
					func() (AppRun, error) { return s.RunDynamic(core, app, FuzzyDyn, solver) })
			case ExhDyn:
				run, err = s.cachedAppRun(seed, core, app, ExhDyn, "exh", nil, -1,
					func() (AppRun, error) { return s.RunDynamic(core, app, ExhDyn, adapt.Exhaustive{}) })
			default:
				err = fmt.Errorf("core: unknown mode %v", mode)
			}
			appSW.Stop()
			appSpan.End()
			if err != nil {
				return nil, fmt.Errorf("chip %d %v/%v: %w", seed, env, mode, err)
			}
			acc.add(run, noVarPerf[app.Name])
		}
		modeSpan.End()
		cellSW.Stop()
	}
	return cells, nil
}

// OutcomeCell is one bar of Figure 13: the outcome mix of the fuzzy
// controller system under one base environment and one microarchitecture
// option set.
type OutcomeCell struct {
	Label     string // e.g. "TS+ASV / FU+Queue opt"
	Config    tech.Config
	Fractions [adapt.NumOutcomes]float64
	Samples   int
}

// Figure13Configs enumerates the paper's grid: base environments A:TS,
// B:TS+ABB, C:TS+ASV, D:TS+ABB+ASV crossed with {No opt, FU opt, Queue
// opt, FU+Queue opt}.
func Figure13Configs() []OutcomeCell {
	bases := []struct {
		name string
		cfg  tech.Config
	}{
		{"TS", tech.Config{TimingSpec: true}},
		{"TS+ABB", tech.Config{TimingSpec: true, ABB: true}},
		{"TS+ASV", tech.Config{TimingSpec: true, ASV: true}},
		{"TS+ABB+ASV", tech.Config{TimingSpec: true, ABB: true, ASV: true}},
	}
	opts := []struct {
		name   string
		fu, qu bool
	}{
		{"No opt", false, false},
		{"FU opt", true, false},
		{"Queue opt", false, true},
		{"FU+Queue opt", true, true},
	}
	var out []OutcomeCell
	for _, o := range opts {
		for _, b := range bases {
			cfg := b.cfg
			cfg.FUReplication = o.fu
			cfg.QueueResize = o.qu
			out = append(out, OutcomeCell{
				Label:  b.name + " / " + o.name,
				Config: cfg,
			})
		}
	}
	return out
}

// RunOutcomes executes the Figure 13 experiment: the fuzzy controller's
// outcome mix across configurations.
func (s *Simulator) RunOutcomes(cfg ExperimentConfig) ([]OutcomeCell, error) {
	cfg, apps, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Training.Obs == nil {
		cfg.Training.Obs = s.obs
	}
	defer s.obs.Timer("core.run_outcomes").Start().Stop()
	s.prefetchArtifacts(cfg, apps)
	cells := Figure13Configs()
	// (config × chip) units over the shared pool. Each unit builds and
	// trains its own core, so units share nothing mutable; per-unit
	// outcome counts reduce config-major, chips-ascending, which keeps
	// every float sum in the serial loop's order.
	nUnits := len(cells) * cfg.Chips
	var prog *obs.Progress
	if s.progressW != nil {
		prog = obs.NewProgress(s.progressW, "config×chip", nUnits, min(cfg.Workers, nUnits))
		defer prog.Stop()
	}
	type outcomeUnit struct {
		counts [adapt.NumOutcomes]float64
		total  float64
		err    error
	}
	results := make([]outcomeUnit, nUnits)
	obs.RunPool(s.obs, "core.pool", cfg.Workers, nUnits, func(slot, u int) {
		idx, ci := u/cfg.Chips, u%cfg.Chips
		prog.SetWorker(slot, cells[idx].Label)
		defer s.obs.Timer("core.unit").Start().Stop()
		r := &results[u]
		seed := cfg.SeedBase + int64(ci)
		chip := s.Chip(seed)
		core, err := s.BuildCoreWithConfig(chip, cells[idx].Config)
		if err != nil {
			r.err = err
			return
		}
		// Per-chip controller training (§4.3.1).
		solver, err := s.TrainFuzzyCached([]*adapt.Core{core}, []int64{seed}, cfg.Training)
		if err != nil {
			r.err = err
			return
		}
		// The whole unit — one chip's AdaptSteady sweep across every app
		// phase — caches as one outcomes artifact; a warm invocation
		// replays the counts without re-running the controller.
		p, err := s.cachedOutcomeUnit(seed, core, solverFingerprint(solver), apps,
			func() (outcomePayload, error) {
				var p outcomePayload
				for _, app := range apps {
					for _, ph := range app.Phases {
						prof, err := s.Profile(app, ph)
						if err != nil {
							return outcomePayload{}, err
						}
						res, err := core.AdaptSteady(prof, solver)
						if err != nil {
							return outcomePayload{}, err
						}
						p.Counts[res.Outcome]++
						p.Total++
					}
				}
				return p, nil
			})
		if err != nil {
			r.err = err
			return
		}
		r.counts, r.total = p.Counts, p.Total
		prog.SetWorker(slot, "idle")
		prog.Step(1)
	})
	for idx := range cells {
		var counts [adapt.NumOutcomes]float64
		total := 0.0
		for ci := 0; ci < cfg.Chips; ci++ {
			r := &results[idx*cfg.Chips+ci]
			if r.err != nil {
				return nil, r.err
			}
			for o := range counts {
				counts[o] += r.counts[o]
			}
			total += r.total
		}
		if total > 0 {
			for o := range counts {
				cells[idx].Fractions[o] = counts[o] / total
			}
		}
		cells[idx].Samples = int(total)
	}
	return cells, nil
}

// BuildCoreWithConfig is BuildCore for an arbitrary technique configuration.
func (s *Simulator) BuildCoreWithConfig(chip *varius.ChipMaps, cfg tech.Config) (*adapt.Core, error) {
	subs, err := s.buildSubsystems(chip)
	if err != nil {
		return nil, err
	}
	return s.coreFromSubsystems(subs, cfg)
}

// Table2Row is one row of Table 2: the mean |fuzzy - exhaustive| for one
// output parameter under one environment, split by subsystem kind.
type Table2Row struct {
	Param string // "Freq (MHz)", "Vdd (mV)", "Vbb (mV)"
	Env   string
	// AbsErr[kind] is the mean absolute error in the row's units.
	AbsErr map[floorplan.Kind]float64
	// PctErr[kind] is the error as % of nominal (absent for Vbb, whose
	// nominal is zero, as in the paper).
	PctErr map[floorplan.Kind]float64
}

// RunTable2 measures fuzzy-controller accuracy against Exhaustive on fresh
// chips, reproducing Table 2. NomFreqGHz converts relative frequency errors
// to MHz (the paper's 4 GHz nominal).
func (s *Simulator) RunTable2(cfg ExperimentConfig) ([]Table2Row, error) {
	cfg, _, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Training.Obs == nil {
		cfg.Training.Obs = s.obs
	}
	defer s.obs.Timer("core.run_table2").Start().Stop()
	s.prefetchArtifacts(cfg, nil) // chips only; Table 2 reads no profiles
	const nomFreqMHz = 4000.0
	const nomVddMV = 1000.0
	envs := []struct {
		name string
		cfg  tech.Config
	}{
		{"TS", tech.Config{TimingSpec: true}},
		{"TS+ABB", tech.Config{TimingSpec: true, ABB: true}},
		{"TS+ASV", tech.Config{TimingSpec: true, ASV: true}},
		{"TS+ABB+ASV", tech.Config{TimingSpec: true, ABB: true, ASV: true}},
	}
	// Pre-draw every accuracy query. Each environment's RNG stream spans
	// its chips (a fresh stream per environment, exactly as the serial
	// loop seeded it), and the draws per (subsystem, query) follow the
	// serial order — TH, alpha, the rho multiplier, then the core-
	// frequency backoff, whose value never depended on the solve between
	// them. With the streams drained up front, the (env × chip) units are
	// pure and fan across the pool.
	const queriesPerSub = 6
	nSubs := s.fp.N()
	nUnits := len(envs) * cfg.Chips
	draws := make([][]t2Query, nUnits)
	for ei := range envs {
		rng := mathx.NewRNG(cfg.SeedBase + 77)
		for ci := 0; ci < cfg.Chips; ci++ {
			qs := make([]t2Query, nSubs*queriesPerSub)
			for qi := range qs {
				qs[qi] = t2Query{
					TH:      rng.Uniform(48+273.15, 68+273.15),
					Alpha:   rng.Uniform(0.02, 1.0),
					RhoMult: rng.Uniform(0.8, 4.5),
					FMult:   rng.Uniform(0.8, 1.0),
				}
			}
			draws[ei*cfg.Chips+ci] = qs
		}
	}
	type t2acc struct {
		fErr, vddErr, vbbErr map[floorplan.Kind][]float64
		err                  error
	}
	results := make([]t2acc, nUnits)
	obs.RunPool(s.obs, "core.pool", cfg.Workers, nUnits, func(slot, u int) {
		ei, ci := u/cfg.Chips, u%cfg.Chips
		defer s.obs.Timer("core.unit").Start().Stop()
		r := &results[u]
		seed := cfg.SeedBase + int64(ci)
		chip := s.Chip(seed)
		core, err := s.BuildCoreWithConfig(chip, envs[ei].cfg)
		if err != nil {
			r.err = err
			return
		}
		// Per-chip controller training (§4.3.1): accuracy is measured
		// on the chip whose model populated the controllers, at
		// operating situations the training never saw.
		solver, err := s.TrainFuzzyCached([]*adapt.Core{core}, []int64{seed}, cfg.Training)
		if err != nil {
			r.err = err
			return
		}
		// The whole unit — every solve across the pre-drawn query stream —
		// caches as one table2 artifact keyed on the stream itself.
		p, err := s.cachedTable2Unit(seed, core, solverFingerprint(solver), draws[u],
			func() (table2Payload, error) {
				p := table2Payload{
					FErr:   make(map[floorplan.Kind][]float64),
					VddErr: make(map[floorplan.Kind][]float64),
					VbbErr: make(map[floorplan.Kind][]float64),
				}
				for i := 0; i < core.N(); i++ {
					kind := core.Subs[i].Sub.Kind
					for q := 0; q < queriesPerSub; q++ {
						d := draws[u][i*queriesPerSub+q]
						query := adapt.FreqQuery{
							THK:       d.TH,
							AlphaF:    d.Alpha,
							Rho:       d.Alpha * d.RhoMult,
							Variant:   vats.IdentityVariant(),
							PowerMult: 1,
						}
						fx := core.FreqSolve(i, query).FMax
						ff := solver.FreqMax(core, i, query)
						p.FErr[kind] = append(p.FErr[kind], math.Abs(fx-ff)*nomFreqMHz)
						fCore := tech.SnapFRelDown(fx * d.FMult)
						pxV, pxB := (adapt.Exhaustive{}).PowerLevels(core, i, fCore, query)
						pfV, pfB := solver.PowerLevels(core, i, fCore, query)
						p.VddErr[kind] = append(p.VddErr[kind], math.Abs(pxV-pfV)*1000)
						p.VbbErr[kind] = append(p.VbbErr[kind], math.Abs(pxB-pfB)*1000)
					}
				}
				return p, nil
			})
		if err != nil {
			r.err = err
			return
		}
		r.fErr, r.vddErr, r.vbbErr = p.FErr, p.VddErr, p.VbbErr
	})
	var rows []Table2Row
	for ei, env := range envs {
		type acc struct {
			fErr, vddErr, vbbErr []float64
		}
		byKind := map[floorplan.Kind]*acc{
			floorplan.Memory: {}, floorplan.Mixed: {}, floorplan.Logic: {},
		}
		// Concatenate per-kind error samples chips-ascending, matching the
		// append order of the serial loop, so every mean sums in the same
		// order at any worker count.
		for ci := 0; ci < cfg.Chips; ci++ {
			r := &results[ei*cfg.Chips+ci]
			if r.err != nil {
				return nil, r.err
			}
			for k, a := range byKind {
				a.fErr = append(a.fErr, r.fErr[k]...)
				a.vddErr = append(a.vddErr, r.vddErr[k]...)
				a.vbbErr = append(a.vbbErr, r.vbbErr[k]...)
			}
		}
		freqRow := Table2Row{Param: "Freq (MHz)", Env: env.name,
			AbsErr: map[floorplan.Kind]float64{}, PctErr: map[floorplan.Kind]float64{}}
		for k, a := range byKind {
			freqRow.AbsErr[k] = mathx.Mean(a.fErr)
			freqRow.PctErr[k] = mathx.Mean(a.fErr) / nomFreqMHz * 100
		}
		rows = append(rows, freqRow)
		if env.cfg.ASV {
			r := Table2Row{Param: "Vdd (mV)", Env: env.name,
				AbsErr: map[floorplan.Kind]float64{}, PctErr: map[floorplan.Kind]float64{}}
			for k, a := range byKind {
				r.AbsErr[k] = mathx.Mean(a.vddErr)
				r.PctErr[k] = mathx.Mean(a.vddErr) / nomVddMV * 100
			}
			rows = append(rows, r)
		}
		if env.cfg.ABB {
			r := Table2Row{Param: "Vbb (mV)", Env: env.name,
				AbsErr: map[floorplan.Kind]float64{}}
			for k, a := range byKind {
				r.AbsErr[k] = mathx.Mean(a.vbbErr)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}
