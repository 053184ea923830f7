package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/adapt"
	"repro/internal/floorplan"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/tech"
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

// resolve fills defaults and rejects an environment or mode listed twice.
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
	for i, e := range c.Envs {
		if !e.Adaptive() {
			return c, nil, fmt.Errorf("core: %v is not an adaptive environment", e)
		}
		if slices.Contains(c.Envs[:i], e) {
			return c, nil, fmt.Errorf("core: environment %v listed twice", e)
		}
	}
	if len(c.Modes) == 0 {
		c.Modes = []Mode{Static, FuzzyDyn, ExhDyn}
	}
	for i, m := range c.Modes {
		if slices.Contains(c.Modes[:i], m) {
			return c, nil, fmt.Errorf("core: mode %v listed twice", m)
		}
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
	s.prefetchProfiles(cfg, apps)

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

	needFuzzy := slices.Contains(cfg.Modes, FuzzyDyn)

	// The work queue holds (chip × environment) units: at small chip
	// counts a per-chip fan-out leaves workers idle while the last chip
	// grinds through all six environments, whereas units keep the pool
	// busy to the tail. A chip's first unit acquires its handle (stage
	// models, PE-table donor, fuzzy controllers and static points by
	// configuration), which the chip's units then share.
	nEnvs := len(cfg.Envs)
	anchors := make([]baselineAnchors, cfg.Chips)
	results, err := runUnits(s, cfg, "chip×env", cfg.Chips*nEnvs,
		func(u int) (int, string) {
			ci := u / nEnvs
			return ci, fmt.Sprintf("chip %d %v", cfg.SeedBase+int64(ci), cfg.Envs[u%nEnvs])
		},
		func(u int, h *ChipHandle) ([]cellAccum, error) {
			ci, ei := u/nEnvs, u%nEnvs
			// The chip's first environment unit also runs its Baseline
			// anchors, so no other unit waits on them.
			if ei == 0 {
				var err error
				if anchors[ci], err = s.chipBaseline(h, apps, noVarPerf); err != nil {
					return nil, err
				}
			}
			return s.runChipEnv(cfg, apps, noVarPerf, needFuzzy, h, cfg.Envs[ei])
		})
	if err != nil {
		return nil, err
	}

	sum := &Summary{Chips: cfg.Chips, NoVarPowerW: noVarPower}
	for _, a := range apps {
		sum.Apps = append(sum.Apps, a.Name)
	}
	// Index-ordered reduction: baselines fold chips-ascending and each
	// cell folds its chips ascending, so every float accumulates in the
	// same order regardless of how the pool scheduled the units.
	for _, a := range anchors {
		sum.BaselineFRel += a.f / float64(cfg.Chips)
		sum.BaselinePerfR += a.perfR / float64(cfg.Chips)
		sum.BaselinePowerW += a.power / float64(cfg.Chips)
	}
	for ei, env := range cfg.Envs {
		for mi, mode := range cfg.Modes {
			var acc cellAccum
			for ci := 0; ci < cfg.Chips; ci++ {
				acc.fold(&results[ci*nEnvs+ei][mi])
			}
			sum.Cells = append(sum.Cells, acc.cell(env, mode))
		}
	}
	return sum, nil
}

// runUnits runs an experiment's n units over the pool. Unit u runs on
// the handle of chip unitChip(u) (which also names the unit on the
// progress line) under the core.unit timer; the chip's first unit
// acquires the handle and the chip's other units wait on it. Once the
// pool drains, every handle is released in chip order, persisting the
// PE tables its units built. Results come back in unit order, and the
// error returned is the first in unit order.
func runUnits[T any](s *Simulator, cfg ExperimentConfig, what string, n int,
	unitChip func(u int) (chip int, label string), run func(u int, h *ChipHandle) (T, error)) ([]T, error) {
	var prog *obs.Progress
	if s.progressW != nil {
		prog = obs.NewProgress(s.progressW, what, n, min(cfg.Workers, n))
		defer prog.Stop()
	}
	handles := make([]onceEntry[*ChipHandle], cfg.Chips)
	results := make([]T, n)
	errs := make([]error, n)
	obs.RunPool(s.obs, "core.pool", cfg.Workers, n, func(slot, u int) {
		ci, label := unitChip(u)
		prog.SetWorker(slot, label)
		h, err := handles[ci].get(func() (*ChipHandle, error) {
			seed := cfg.SeedBase + int64(ci)
			if s.tracer != nil {
				defer s.tracer.Start(fmt.Sprintf("chip %d prep", seed)).End()
			}
			return s.AcquireChip(seed)
		})
		if err == nil {
			unitSW := s.obs.Timer("core.unit").Start()
			results[u], err = run(u, h)
			unitSW.Stop()
		}
		errs[u] = err
		prog.SetWorker(slot, "idle")
		prog.Step(1)
	})
	for i := range handles {
		s.ReleaseChip(handles[i].val)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// baselineAnchors are one chip's Baseline figures: its worst-case-safe
// clock and the app-mean performance (relative to NoVar) and power there.
type baselineAnchors struct {
	f, perfR, power float64
}

// chipBaseline runs every app on the Baseline environment at the chip's
// fvar, through the apprun kind (see anchorRun). The handle already holds
// the fvar (15 FVar bisections); the chip's leakage-effective Vt0s are
// computed once, by the first run that misses.
func (s *Simulator) chipBaseline(h *ChipHandle, apps []workload.App, noVarPerf map[string]float64) (baselineAnchors, error) {
	if s.tracer != nil {
		defer s.tracer.Start(fmt.Sprintf("chip %d baseline", h.seed)).End()
	}
	a := baselineAnchors{f: h.fvar}
	vt0 := sync.OnceValue(func() []float64 { return s.chipVt0Effs(h.chip) })
	for _, app := range apps {
		r, err := s.anchorRun(h.seed, Baseline, app, h.fvar, vt0)
		if err != nil {
			return baselineAnchors{}, err
		}
		a.perfR += r.Perf / noVarPerf[app.Name] / float64(len(apps))
		a.power += r.PowerW / float64(len(apps))
	}
	return a, nil
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

// runChipEnv executes one (chip × environment) work unit: derives the
// environment's core from the chip's handle, names this chip's fuzzy
// controllers from the handle if the Fuzzy-Dyn mode needs them, and runs
// every mode × app of the cell through UnitAppRun, returning one
// accumulator per entry of cfg.Modes. The controllers are read or
// trained by the first fuzzy unit that misses, inside its core.app_run
// (timed on their own as core.fuzzy_train). The core runs on whatever
// worker goroutine the unit lands on; only the handle's concurrency-safe
// table store and memos are shared between units.
func (s *Simulator) runChipEnv(cfg ExperimentConfig, apps []workload.App,
	noVarPerf map[string]float64, needFuzzy bool, h *ChipHandle, env Environment) ([]cellAccum, error) {
	var envSpan *obs.Span
	if s.tracer != nil {
		envSpan = s.tracer.Start(fmt.Sprintf("chip %d %v", h.seed, env))
		defer envSpan.End()
	}
	cpu, err := s.HandleCore(h, env)
	if err != nil {
		return nil, err
	}
	// Per-chip fuzzy controllers: the manufacturer populates this chip's
	// controllers by running the Exhaustive algorithm on a software
	// model of *this* chip (§4.3.1).
	var fuzzy adapt.Solver
	if needFuzzy {
		if fuzzy, _, err = s.HandleSolver(h, cpu, cfg.Training); err != nil {
			return nil, err
		}
	}
	// Static points per class, chosen before any app runs and Int before
	// FP: choosing one drives cpu, whose warm-started thermal solver
	// carries its state into the runs. Only classes the app set contains
	// get one, so single-class app sets (a common shape for generated
	// scenarios) run Static without error.
	statics := make(map[workload.Class]*adapt.OperatingPoint)
	if slices.Contains(cfg.Modes, Static) {
		for _, class := range []workload.Class{workload.Int, workload.FP} {
			if !slices.ContainsFunc(apps, func(a workload.App) bool { return a.Class == class }) {
				continue
			}
			pt, err := s.HandleStaticPoint(h, cpu, class, apps)
			if err != nil {
				return nil, err
			}
			statics[class] = &pt
		}
	}
	cells := make([]cellAccum, len(cfg.Modes))
	for mi, mode := range cfg.Modes {
		acc := &cells[mi]
		cellSW := s.obs.Timer("core.cell").Start()
		modeSpan := envSpan.Child(mode.String())
		for _, app := range apps {
			appSpan := modeSpan.Child(app.Name)
			appSW := s.obs.Timer("core.app_run").Start()
			unit := FleetUnit{App: app, Phase: -1}
			solver := fuzzy
			switch mode {
			case Static:
				unit.Static = statics[app.Class]
			case ExhDyn:
				solver = adapt.Exhaustive{}
			}
			run, err := s.UnitAppRun(h.seed, cpu, mode, solver, unit)
			appSW.Stop()
			appSpan.End()
			if err != nil {
				return nil, fmt.Errorf("chip %d %v/%v: %w", h.seed, env, mode, err)
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
	s.prefetchProfiles(cfg, apps)
	cells := Figure13Configs()
	// (config × chip) units over the shared pool. A chip's first unit
	// acquires its handle; each unit derives its configuration's core from
	// it, so a chip's 16 configurations share one PE-table store. Per-unit
	// outcome counts reduce config-major, chips-ascending, which keeps
	// every float sum in the serial loop's order.
	results, err := runUnits(s, cfg, "config×chip", len(cells)*cfg.Chips,
		func(u int) (int, string) { return u % cfg.Chips, cells[u/cfg.Chips].Label },
		func(u int, h *ChipHandle) (outcomePayload, error) {
			return s.outcomeUnit(h, cells[u/cfg.Chips].Config, apps, cfg.Training)
		})
	if err != nil {
		return nil, err
	}
	for idx := range cells {
		var counts [adapt.NumOutcomes]float64
		total := 0.0
		for _, p := range results[idx*cfg.Chips : (idx+1)*cfg.Chips] {
			for o := range counts {
				counts[o] += p.Counts[o]
			}
			total += p.Total
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

// outcomeUnit runs one Figure 13 (config × chip) unit: the chip's
// controllers for cfg (§4.3.1) sweep AdaptSteady across every app phase.
// The whole unit caches as one outcomes artifact; a warm invocation
// replays the counts without reading or running the controllers.
func (s *Simulator) outcomeUnit(h *ChipHandle, cfg tech.Config,
	apps []workload.App, opts adapt.TrainOptions) (outcomePayload, error) {
	cpu, err := h.core(cfg)
	if err != nil {
		return outcomePayload{}, err
	}
	controllers, name, err := s.HandleSolver(h, cpu, opts)
	if err != nil {
		return outcomePayload{}, err
	}
	key := s.outcomesKey(h.seed, cpu.Config, name, apps)
	return cached(s.store, outcomesKind, key, decodeJSON[outcomePayload], encodeJSON[outcomePayload], func() (outcomePayload, error) {
		solver, err := unitSolver(controllers)
		if err != nil {
			return outcomePayload{}, err
		}
		var p outcomePayload
		for _, app := range apps {
			for _, ph := range app.Phases {
				prof, err := s.Profile(app, ph)
				if err != nil {
					return outcomePayload{}, err
				}
				res, err := cpu.AdaptSteady(prof, solver)
				if err != nil {
					return outcomePayload{}, err
				}
				p.Counts[res.Outcome]++
				p.Total++
			}
		}
		return p, nil
	})
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
	nSubs := s.fp.N()
	nUnits := len(envs) * cfg.Chips
	draws := make([][]t2Query, nUnits)
	for ei := range envs {
		rng := mathx.NewRNG(cfg.SeedBase + 77)
		for ci := 0; ci < cfg.Chips; ci++ {
			qs := make([]t2Query, nSubs*t2QueriesPerSub)
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
	results, err := runUnits(s, cfg, "env×chip", nUnits,
		func(u int) (int, string) { return u % cfg.Chips, envs[u/cfg.Chips].name },
		func(u int, h *ChipHandle) (table2Payload, error) {
			return s.table2Unit(h, envs[u/cfg.Chips].cfg, draws[u], cfg.Training)
		})
	if err != nil {
		return nil, err
	}
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
		for _, p := range results[ei*cfg.Chips : (ei+1)*cfg.Chips] {
			for k, a := range byKind {
				a.fErr = append(a.fErr, p.FErr[k]...)
				a.vddErr = append(a.vddErr, p.VddErr[k]...)
				a.vbbErr = append(a.vbbErr, p.VbbErr[k]...)
			}
		}
		freqRow := Table2Row{Param: "Freq (MHz)", Env: env.name,
			AbsErr: map[floorplan.Kind]float64{}, PctErr: map[floorplan.Kind]float64{}}
		for k, a := range byKind {
			freqRow.AbsErr[k] = mathx.Mean(a.fErr)
			freqRow.PctErr[k] = mathx.Mean(a.fErr) / t2NomFreqMHz * 100
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

// Table 2 draws t2QueriesPerSub accuracy queries per subsystem and
// reports frequency errors in MHz at the paper's 4 GHz nominal.
const (
	t2QueriesPerSub = 6
	t2NomFreqMHz    = 4000.0
)

// table2Unit runs one Table 2 (env × chip) unit. Accuracy is measured on
// the chip whose model populated the controllers (§4.3.1), at operating
// situations the training never saw. The whole unit — every solve across
// the pre-drawn query stream — caches as one table2 artifact keyed on the
// stream itself, and a warm invocation reads no controllers.
func (s *Simulator) table2Unit(h *ChipHandle, cfg tech.Config,
	queries []t2Query, opts adapt.TrainOptions) (table2Payload, error) {
	cpu, err := h.core(cfg)
	if err != nil {
		return table2Payload{}, err
	}
	controllers, name, err := s.HandleSolver(h, cpu, opts)
	if err != nil {
		return table2Payload{}, err
	}
	key := s.table2Key(h.seed, cpu.Config, name, queries)
	return cached(s.store, table2Kind, key, decodeJSON[table2Payload], encodeJSON[table2Payload], func() (table2Payload, error) {
		solver, err := unitSolver(controllers)
		if err != nil {
			return table2Payload{}, err
		}
		p := table2Payload{
			FErr:   make(map[floorplan.Kind][]float64),
			VddErr: make(map[floorplan.Kind][]float64),
			VbbErr: make(map[floorplan.Kind][]float64),
		}
		for i := 0; i < cpu.N(); i++ {
			kind := cpu.Subs[i].Sub.Kind
			for q := 0; q < t2QueriesPerSub; q++ {
				d := queries[i*t2QueriesPerSub+q]
				query := adapt.FreqQuery{
					THK:       d.TH,
					AlphaF:    d.Alpha,
					Rho:       d.Alpha * d.RhoMult,
					Variant:   vats.IdentityVariant(),
					PowerMult: 1,
				}
				fx := cpu.FreqSolve(i, query).FMax
				ff := solver.FreqMax(cpu, i, query)
				p.FErr[kind] = append(p.FErr[kind], math.Abs(fx-ff)*t2NomFreqMHz)
				fCore := tech.SnapFRelDown(fx * d.FMult)
				pxV, pxB := (adapt.Exhaustive{}).PowerLevels(cpu, i, fCore, query)
				pfV, pfB := solver.PowerLevels(cpu, i, fCore, query)
				p.VddErr[kind] = append(p.VddErr[kind], math.Abs(pxV-pfV)*1000)
				p.VbbErr[kind] = append(p.VbbErr[kind], math.Abs(pxB-pfB)*1000)
			}
		}
		return p, nil
	})
}
