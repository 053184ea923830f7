package core

import (
	"encoding/json"
	"math/bits"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/checker"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/tech"
	"repro/internal/thermal"
	"repro/internal/varius"
	"repro/internal/workload"
)

// Artifact kinds produced by the simulator. Bump a Version whenever the
// producer's output for the same (params, seed) changes.
var (
	chipKind = artifact.Kind{Name: "chip", Version: 1}
	// profile v2: the key material gained trace provenance and the Mix and
	// Phase structs gained wire-format JSON tags, changing the params
	// encoding for unchanged outputs.
	profileKind = artifact.Kind{Name: "profile", Version: 2}
	solverKind  = artifact.Kind{Name: "solver", Version: 1}
	// petables v2: slots carry a per-column build mask (the dense store
	// builds budget columns lazily), changing the payload shape.
	petableKind = artifact.Kind{Name: "petables", Version: 2}
	// trace entries hold canonical TraceV1 documents keyed by their
	// generator inputs (workload.Spec, seed), so generated scenarios replay
	// from the store like proxy-suite artifacts.
	traceKind = artifact.Kind{Name: "trace", Version: 1}
	// apprun entries hold finished per-(chip, environment, mode, app)
	// evaluation results; staticpt entries hold the per-(chip, class)
	// conservative operating points that Static-mode runs share. Both are
	// exact float64 round-trips of the computed values, so a warm summary
	// run skips the adaptation loop entirely and still reduces to
	// byte-identical figures.
	apprunKind   = artifact.Kind{Name: "apprun", Version: 1}
	staticptKind = artifact.Kind{Name: "staticpt", Version: 1}
	// outcomes entries hold one Figure 13 unit's controller-outcome counts
	// (one chip × one technique configuration across the full app suite);
	// table2 entries hold one Table 2 unit's per-kind accuracy samples.
	// Both key on the trained solver's weight fingerprint, so a retrained
	// controller can never replay stale counts.
	outcomesKind = artifact.Kind{Name: "outcomes", Version: 1}
	table2Kind   = artifact.Kind{Name: "table2", Version: 1}
)

// SetArtifacts attaches a persistent artifact store; chip variation maps,
// phase profiles, trained fuzzy solvers, PE tables, generated traces,
// static operating points, and finished per-app adaptation results are
// then loaded from (and written to) it instead of being rebuilt every
// process. A nil store (the default) disables persistence at zero cost.
// Cached artifacts are byte-exact reproductions of a fresh build, so
// results are identical with or without the store.
func (s *Simulator) SetArtifacts(store *artifact.Store) { s.store = store }

// Artifacts returns the attached store (nil when disabled).
func (s *Simulator) Artifacts() *artifact.Store { return s.store }

// cachedChip returns chip seed's maps through the artifact store, or nil
// to tell the caller to build directly (store disabled, or the store
// layer failed in a way its counters already recorded).
func (s *Simulator) cachedChip(seed int64) *varius.ChipMaps {
	if s.store == nil {
		return nil
	}
	key, err := artifact.Key(chipKind, s.opts.Varius, seed)
	if err != nil {
		return nil
	}
	chip := new(varius.ChipMaps)
	err = s.store.GetOrBuild(chipKind, key, chip.UnmarshalBinary,
		func() ([]byte, error) {
			chip = s.gen.Chip(seed)
			return chip.MarshalBinary()
		})
	if err != nil {
		return nil
	}
	return chip
}

// profileParams is the profile artifact's key material. The full Phase
// struct is included (not just its index) so editing the workload tables
// invalidates stale entries without a version bump.
type profileParams struct {
	App   string         `json:"app"`
	Class workload.Class `json:"class"`
	// Trace is the TraceV1 content hash for apps lowered from a trace
	// (empty for the proxy suite): identically named apps from different
	// traces must never share a profile entry.
	Trace    string         `json:"trace,omitempty"`
	Phase    workload.Phase `json:"phase"`
	TraceLen int            `json:"trace_len"`
}

// buildProfile builds (or loads) one phase profile through the store.
func (s *Simulator) buildProfile(app workload.App, ph workload.Phase) (pipeline.Profile, error) {
	seed := profileSeed(app.Name+app.Trace, ph.Index)
	build := func() (pipeline.Profile, error) {
		defer s.obs.Timer("core.profile.build").Start().Stop()
		return pipeline.BuildProfile(app, ph, s.opts.TraceLen, seed)
	}
	if s.store == nil {
		return build()
	}
	params := profileParams{App: app.Name, Class: app.Class, Trace: app.Trace, Phase: ph, TraceLen: s.opts.TraceLen}
	key, err := artifact.Key(profileKind, params, seed)
	if err != nil {
		return build()
	}
	var p pipeline.Profile
	err = s.store.GetOrBuild(profileKind, key,
		func(payload []byte) error { return decodeProfile(payload, &p) },
		func() ([]byte, error) {
			var berr error
			if p, berr = build(); berr != nil {
				return nil, berr
			}
			return encodeProfile(p), nil
		})
	if err != nil {
		return pipeline.Profile{}, err
	}
	return p, nil
}

// petableKey derives the petables artifact key: the tables are fully
// determined by the chip's stage models, i.e. by (varius params, seed).
func (s *Simulator) petableKey(seed int64) (string, bool) {
	key, err := artifact.Key(petableKind, s.opts.Varius, seed)
	return key, err == nil
}

// loadPETables seeds cpu's dense PE-fmax store from the artifact cache,
// returning how many table columns were imported (0 with no store or no
// entry). The petables artifact holds every dense PE-fmax table one run
// built for one chip. Unlike the other kinds there is no single build
// call site to wrap — tables accumulate lazily as controller invocations
// touch grid points — so the store's raw Get/Put surface is used instead
// of GetOrBuild: AcquireChip loads the tables into the donor core, and
// ReleaseChip writes the run's accumulated tables back. Table values are
// exact float64 round-trips, so a warm run's solves are byte-identical
// to a cold run's.
func (s *Simulator) loadPETables(cpu *adapt.Core, seed int64) int {
	if s.store == nil {
		return 0
	}
	key, ok := s.petableKey(seed)
	if !ok {
		return 0
	}
	var tabs []adapt.PETableSlot
	if !s.store.Get(petableKind, key, func(payload []byte) error {
		var derr error
		tabs, derr = decodePETables(payload)
		return derr
	}) {
		return 0
	}
	return cpu.ImportPETables(tabs)
}

// storePETables writes cpu's built PE-fmax tables back to the artifact
// cache, skipping the write when the run built no columns beyond what
// loadPETables imported.
func (s *Simulator) storePETables(cpu *adapt.Core, seed int64, imported int) {
	if s.store == nil {
		return
	}
	tabs := cpu.ExportPETables()
	cols := 0
	for _, t := range tabs {
		cols += bits.OnesCount8(t.Mask)
	}
	if cols <= imported {
		return
	}
	key, ok := s.petableKey(seed)
	if !ok {
		return
	}
	s.store.Put(petableKind, key, encodePETables(tabs))
}

// appRunParams is the apprun artifact's key material: the full machine
// model behind the chip's cores, the environment's technique
// configuration, the application's identity down to its phase tables, and
// the adaptation policy. The policy is pinned by content, not provenance:
// Solver carries the SHA-256 of the dynamic solver's serialized weights
// (so retrained controllers can never replay a stale run), and Static
// carries the chip's exact static operating point, whose float64 values
// fingerprint the conservative class profile it was derived from.
type appRunParams struct {
	Varius   varius.Params  `json:"varius"`
	Power    power.Params   `json:"power"`
	Thermal  thermal.Params `json:"thermal"`
	Checker  checker.Config `json:"checker"`
	Limits   adapt.Limits   `json:"limits"`
	Tech     tech.Config    `json:"tech"`
	TraceLen int            `json:"trace_len"`

	Mode   Mode             `json:"mode"`
	App    string           `json:"app"`
	Trace  string           `json:"trace,omitempty"`
	Class  workload.Class   `json:"class"`
	Phases []workload.Phase `json:"phases"`
	// PhaseOnly, when set, restricts the run to the phase at that position
	// in Phases (weighted as a whole app, weight 1) — the fleet service's
	// phase-change events cache at this granularity. Absent for whole-app
	// runs, which keeps every pre-existing key unchanged.
	PhaseOnly *int `json:"phase_only,omitempty"`

	Solver string                `json:"solver,omitempty"`
	Static *adapt.OperatingPoint `json:"static,omitempty"`
}

// solverFingerprint is the content identity a dynamic solver contributes
// to apprun keys: the SHA-256 hex of the trained weights for a fuzzy
// solver (computed once per solver, see FuzzySolver.Fingerprint), a fixed
// tag for the (stateless) exhaustive algorithm. An empty return disables
// apprun caching for the calling unit.
func solverFingerprint(solver adapt.Solver) string {
	switch sv := solver.(type) {
	case *adapt.FuzzySolver:
		return sv.Fingerprint()
	case adapt.Exhaustive:
		return "exh"
	}
	return ""
}

// appRunKey derives the apprun artifact key for one (chip, environment,
// mode, app[, phase]) unit, or "" when the unit is uncacheable (store
// disabled, dynamic mode without a solver fingerprint, or key-encoding
// failure). phase < 0 keys the whole app; phase >= 0 keys the single
// phase at that position in app.Phases.
func (s *Simulator) appRunKey(seed int64, cfg tech.Config, app workload.App,
	mode Mode, solverFP string, static *adapt.OperatingPoint, phase int) string {
	if s.store == nil || (mode != Static && solverFP == "") {
		return ""
	}
	params := appRunParams{
		Varius:   s.opts.Varius,
		Power:    s.opts.Power,
		Thermal:  s.opts.Thermal,
		Checker:  s.opts.Checker,
		Limits:   s.opts.Limits,
		Tech:     cfg,
		TraceLen: s.opts.TraceLen,
		Mode:     mode,
		App:      app.Name,
		Trace:    app.Trace,
		Class:    app.Class,
		Phases:   app.Phases,
		Solver:   solverFP,
		Static:   static,
	}
	if phase >= 0 {
		if phase >= len(app.Phases) {
			return ""
		}
		params.PhaseOnly = &phase
	}
	key, err := artifact.Key(apprunKind, params, seed)
	if err != nil {
		return ""
	}
	return key
}

// cachedAppRun wraps one application run in the artifact store: a hit
// replays the finished AppRun instead of re-entering the per-phase
// adaptation loop. Dynamic modes must supply solverFP; Static mode must
// supply its operating point; phase < 0 runs the whole app, phase >= 0 a
// single phase (see appRunKey). Controller-outcome *counters* (the obs
// metrics, not the AppRun outcome counts) only advance on misses, since a
// hit runs no controller.
func (s *Simulator) cachedAppRun(seed int64, core *adapt.Core, app workload.App,
	mode Mode, solverFP string, static *adapt.OperatingPoint, phase int,
	build func() (AppRun, error)) (AppRun, error) {
	key := s.appRunKey(seed, core.Config, app, mode, solverFP, static, phase)
	if key == "" {
		return build()
	}
	var run AppRun
	err := s.store.GetOrBuild(apprunKind, key,
		func(payload []byte) error { return decodeAppRun(payload, &run) },
		func() ([]byte, error) {
			var berr error
			if run, berr = build(); berr != nil {
				return nil, berr
			}
			return encodeAppRun(run), nil
		})
	if err != nil {
		return AppRun{}, err
	}
	return run, nil
}

// staticPointParams is the staticpt artifact's key material: the machine
// model, the technique configuration, and the identities of every class
// profile the conservative worst-case profile folds over, in fold order.
type staticPointParams struct {
	Varius   varius.Params  `json:"varius"`
	Power    power.Params   `json:"power"`
	Thermal  thermal.Params `json:"thermal"`
	Checker  checker.Config `json:"checker"`
	Limits   adapt.Limits   `json:"limits"`
	Tech     tech.Config    `json:"tech"`
	TraceLen int            `json:"trace_len"`

	Class workload.Class  `json:"class"`
	Suite []profileParams `json:"suite"`
}

// cachedStaticPoint is StaticPoint behind the artifact store.
func (s *Simulator) cachedStaticPoint(core *adapt.Core, class workload.Class,
	apps []workload.App, seed int64) (adapt.OperatingPoint, error) {
	if s.store == nil {
		return s.StaticPoint(core, class, apps)
	}
	params := staticPointParams{
		Varius:   s.opts.Varius,
		Power:    s.opts.Power,
		Thermal:  s.opts.Thermal,
		Checker:  s.opts.Checker,
		Limits:   s.opts.Limits,
		Tech:     core.Config,
		TraceLen: s.opts.TraceLen,
		Class:    class,
	}
	for _, app := range apps {
		if app.Class != class {
			continue
		}
		for _, ph := range app.Phases {
			params.Suite = append(params.Suite, profileParams{
				App: app.Name, Class: app.Class, Trace: app.Trace,
				Phase: ph, TraceLen: s.opts.TraceLen,
			})
		}
	}
	key, err := artifact.Key(staticptKind, params, seed)
	if err != nil {
		return s.StaticPoint(core, class, apps)
	}
	var point adapt.OperatingPoint
	err = s.store.GetOrBuild(staticptKind, key,
		func(payload []byte) error { return decodePoint(payload, &point) },
		func() ([]byte, error) {
			var berr error
			if point, berr = s.StaticPoint(core, class, apps); berr != nil {
				return nil, berr
			}
			return encodePoint(point), nil
		})
	if err != nil {
		return adapt.OperatingPoint{}, err
	}
	return point, nil
}

// solverParams is the solver artifact's key material: every input that
// shapes the trained weights — the machine models behind the training
// cores, the technique configuration, the training-chip seeds, and the
// TrainOptions fields that matter. Workers and Obs are deliberately
// absent: training output is byte-identical without them.
type solverParams struct {
	Varius  varius.Params  `json:"varius"`
	Power   power.Params   `json:"power"`
	Thermal thermal.Params `json:"thermal"`
	Checker checker.Config `json:"checker"`
	Limits  adapt.Limits   `json:"limits"`
	Tech    tech.Config    `json:"tech"`

	ChipSeeds []int64 `json:"chip_seeds"`

	Examples     int     `json:"examples"`
	Rules        int     `json:"rules"`
	LearningRate float64 `json:"learning_rate"`
	Epochs       int     `json:"epochs"`
	SigmaInit    float64 `json:"sigma_init"`
	FuzzySeed    int64   `json:"fuzzy_seed"`
	MinBiasComp  float64 `json:"min_bias_comp"`
	THLoK        float64 `json:"th_lo_k"`
	THHiK        float64 `json:"th_hi_k"`
	AlphaLo      float64 `json:"alpha_lo"`
	AlphaHi      float64 `json:"alpha_hi"`
	CPILo        float64 `json:"cpi_lo"`
	CPIHi        float64 `json:"cpi_hi"`
}

// TrainFuzzyCached is adapt.TrainFuzzySolver behind the artifact store:
// when the full (machine config, technique config, chip seeds,
// TrainOptions) fingerprint matches a stored controller set, training is
// skipped and the stored solver — a byte-exact reproduction of the
// trained one — is returned. chipSeeds must list the generator seeds of
// the chips the cores were built from, in core order; that is what makes
// an evalsim run recognize what a fuzzytrain run produced.
func (s *Simulator) TrainFuzzyCached(cores []*adapt.Core, chipSeeds []int64, opts adapt.TrainOptions) (*adapt.FuzzySolver, error) {
	if s.store == nil || len(cores) == 0 || len(chipSeeds) != len(cores) {
		return adapt.TrainFuzzySolver(cores, opts)
	}
	params := solverParams{
		Varius:  s.opts.Varius,
		Power:   s.opts.Power,
		Thermal: s.opts.Thermal,
		Checker: s.opts.Checker,
		Limits:  s.opts.Limits,
		Tech:    cores[0].Config,

		ChipSeeds: chipSeeds,

		Examples:     opts.Examples,
		Rules:        opts.Fuzzy.Rules,
		LearningRate: opts.Fuzzy.LearningRate,
		Epochs:       opts.Fuzzy.Epochs,
		SigmaInit:    opts.Fuzzy.SigmaInit,
		FuzzySeed:    opts.Fuzzy.Seed,
		MinBiasComp:  opts.MinBiasComp,
		THLoK:        opts.THLoK,
		THHiK:        opts.THHiK,
		AlphaLo:      opts.AlphaLo,
		AlphaHi:      opts.AlphaHi,
		CPILo:        opts.CPILo,
		CPIHi:        opts.CPIHi,
	}
	key, err := artifact.Key(solverKind, params, opts.Seed)
	if err != nil {
		return adapt.TrainFuzzySolver(cores, opts)
	}
	var solver *adapt.FuzzySolver
	err = s.store.GetOrBuild(solverKind, key,
		func(payload []byte) error {
			sv := new(adapt.FuzzySolver)
			if derr := sv.UnmarshalBinary(payload); derr != nil {
				return derr
			}
			solver = sv
			return nil
		},
		func() ([]byte, error) {
			var terr error
			if solver, terr = adapt.TrainFuzzySolver(cores, opts); terr != nil {
				return nil, terr
			}
			return solver.MarshalBinary()
		})
	if err != nil {
		return nil, err
	}
	return solver, nil
}

// machineParams is the machine-model slice of key material every
// result-level artifact shares: everything that shapes a core's physics
// besides the technique configuration.
type machineParams struct {
	Varius  varius.Params  `json:"varius"`
	Power   power.Params   `json:"power"`
	Thermal thermal.Params `json:"thermal"`
	Checker checker.Config `json:"checker"`
	Limits  adapt.Limits   `json:"limits"`
	Tech    tech.Config    `json:"tech"`
}

func (s *Simulator) machineParams(cfg tech.Config) machineParams {
	return machineParams{
		Varius:  s.opts.Varius,
		Power:   s.opts.Power,
		Thermal: s.opts.Thermal,
		Checker: s.opts.Checker,
		Limits:  s.opts.Limits,
		Tech:    cfg,
	}
}

// outcomesParams is the outcomes artifact's key material: one Figure 13
// unit — the machine model, the unit's technique configuration, the
// trained controller's weight fingerprint, and the identity of every
// (app, phase) profile the unit's serial loop visits, in loop order.
type outcomesParams struct {
	Machine  machineParams `json:"machine"`
	TraceLen int           `json:"trace_len"`
	Solver   string        `json:"solver"`

	Suite []profileParams `json:"suite"`
}

// outcomePayload is one unit's controller-outcome counts. Counts are
// small integers stored as float64 (the reduction's accumulator type),
// which JSON round-trips exactly.
type outcomePayload struct {
	Counts [adapt.NumOutcomes]float64 `json:"counts"`
	Total  float64                    `json:"total"`
}

// cachedOutcomeUnit wraps one Figure 13 (config × chip) unit — the
// AdaptSteady sweep over every app phase — in the artifact store. An
// empty solverFP (untrained or unserializable solver) disables caching.
func (s *Simulator) cachedOutcomeUnit(seed int64, core *adapt.Core, solverFP string,
	apps []workload.App, build func() (outcomePayload, error)) (outcomePayload, error) {
	if s.store == nil || solverFP == "" {
		return build()
	}
	params := outcomesParams{
		Machine:  s.machineParams(core.Config),
		TraceLen: s.opts.TraceLen,
		Solver:   solverFP,
	}
	for _, app := range apps {
		for _, ph := range app.Phases {
			params.Suite = append(params.Suite, profileParams{
				App: app.Name, Class: app.Class, Trace: app.Trace,
				Phase: ph, TraceLen: s.opts.TraceLen,
			})
		}
	}
	key, err := artifact.Key(outcomesKind, params, seed)
	if err != nil {
		return build()
	}
	var p outcomePayload
	err = s.store.GetOrBuild(outcomesKind, key,
		func(payload []byte) error { return json.Unmarshal(payload, &p) },
		func() ([]byte, error) {
			var berr error
			if p, berr = build(); berr != nil {
				return nil, berr
			}
			return json.Marshal(p)
		})
	if err != nil {
		return outcomePayload{}, err
	}
	return p, nil
}

// t2Query is one pre-drawn Table 2 accuracy query. Promoted to key
// material: the table2 artifact pins the exact query stream, so any
// change to the draw schedule invalidates stored samples.
type t2Query struct {
	TH      float64 `json:"th"`
	Alpha   float64 `json:"alpha"`
	RhoMult float64 `json:"rho_mult"`
	FMult   float64 `json:"f_mult"`
}

// table2Params is the table2 artifact's key material: one (env × chip)
// accuracy unit — the machine model, the unit's technique configuration,
// the trained controller's weight fingerprint, and the full pre-drawn
// query stream. TraceLen is deliberately absent: Table 2 reads no
// profiles.
type table2Params struct {
	Machine machineParams `json:"machine"`
	Solver  string        `json:"solver"`

	Queries []t2Query `json:"queries"`
}

// table2Payload is one unit's per-kind accuracy samples, in the serial
// loop's append order. Exact float64 round-trips keep warm reductions
// byte-identical to cold ones.
type table2Payload struct {
	FErr   map[floorplan.Kind][]float64 `json:"f_err"`
	VddErr map[floorplan.Kind][]float64 `json:"vdd_err"`
	VbbErr map[floorplan.Kind][]float64 `json:"vbb_err"`
}

// cachedTable2Unit wraps one Table 2 (env × chip) unit in the artifact
// store.
func (s *Simulator) cachedTable2Unit(seed int64, core *adapt.Core, solverFP string,
	queries []t2Query, build func() (table2Payload, error)) (table2Payload, error) {
	if s.store == nil || solverFP == "" {
		return build()
	}
	params := table2Params{
		Machine: s.machineParams(core.Config),
		Solver:  solverFP,
		Queries: queries,
	}
	key, err := artifact.Key(table2Kind, params, seed)
	if err != nil {
		return build()
	}
	var p table2Payload
	err = s.store.GetOrBuild(table2Kind, key,
		func(payload []byte) error { return json.Unmarshal(payload, &p) },
		func() ([]byte, error) {
			var berr error
			if p, berr = build(); berr != nil {
				return nil, berr
			}
			return json.Marshal(p)
		})
	if err != nil {
		return table2Payload{}, err
	}
	return p, nil
}
