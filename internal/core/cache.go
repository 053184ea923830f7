package core

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"

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
	// evaluation results and the Baseline and NoVar anchor runs (see
	// anchorKey); staticpt entries hold the per-(chip, class)
	// conservative operating points that Static-mode runs share. Both are
	// exact float64 round-trips of the computed values, so a warm summary
	// run skips the adaptation loop entirely and still reduces to
	// byte-identical figures.
	apprunKind   = artifact.Kind{Name: "apprun", Version: 1}
	staticptKind = artifact.Kind{Name: "staticpt", Version: 1}
	// outcomes entries hold one Figure 13 unit's controller-outcome counts
	// (one chip × one technique configuration across the full app suite);
	// table2 entries hold one Table 2 unit's per-kind accuracy samples.
	// Both key on the controllers' name, their solver record key, so
	// controllers trained otherwise can never replay stale counts.
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

// storeKey returns the key of (kind, params(), seed), or "" when store is
// nil or the params do not encode. params runs only with a store
// attached, so a store-less run builds no key material.
func storeKey(store *artifact.Store, kind artifact.Kind, seed int64, params func() any) string {
	if store == nil {
		return ""
	}
	key, err := artifact.Key(kind, params(), seed)
	if err != nil {
		return ""
	}
	return key
}

// cached returns build's value through store under key: a hit decodes the
// stored payload, a miss builds the value and persists its encoding. An
// empty key (no store, or params that do not key) builds directly. A
// cache failure never fails the call: the only error returned is build's.
func cached[T any](store *artifact.Store, kind artifact.Kind, key string,
	decode func([]byte, *T) error, encode func(T) ([]byte, error), build func() (T, error)) (T, error) {
	if key == "" {
		return build()
	}
	var v T
	built := false
	err := store.GetOrBuild(kind, key,
		func(payload []byte) error { return decode(payload, &v) },
		func() ([]byte, error) {
			var berr error
			if v, berr = build(); berr != nil {
				return nil, berr
			}
			built = true
			return encode(v)
		})
	if err != nil && !built {
		var zero T
		return zero, err
	}
	return v, nil
}

// infallible adapts an encoder that cannot fail to cached's signature.
func infallible[T any](encode func(T) []byte) func(T) ([]byte, error) {
	return func(v T) ([]byte, error) { return encode(v), nil }
}

func decodeJSON[T any](payload []byte, v *T) error { return json.Unmarshal(payload, v) }

func encodeJSON[T any](v T) ([]byte, error) { return json.Marshal(v) }

// chipKey keys chip seed's variation maps by (varius params, seed).
func (s *Simulator) chipKey(seed int64) string {
	return storeKey(s.store, chipKind, seed, func() any { return s.opts.Varius })
}

func decodeChip(payload []byte, chip **varius.ChipMaps) error {
	*chip = new(varius.ChipMaps)
	return (*chip).UnmarshalBinary(payload)
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

func (s *Simulator) profileParams(app workload.App, ph workload.Phase) profileParams {
	return profileParams{App: app.Name, Class: app.Class, Trace: app.Trace, Phase: ph, TraceLen: s.opts.TraceLen}
}

// suiteParams lists the profile identity of every phase of the apps keep
// accepts (all apps when keep is nil), in app and phase order.
func (s *Simulator) suiteParams(apps []workload.App, keep func(workload.App) bool) []profileParams {
	var suite []profileParams
	for _, app := range apps {
		if keep != nil && !keep(app) {
			continue
		}
		for _, ph := range app.Phases {
			suite = append(suite, s.profileParams(app, ph))
		}
	}
	return suite
}

// profileKey keys one phase profile by its identity and trace seed. A
// phase of app at its own position hashes the encoding appEncoding
// keeps for it; any other phase is encoded afresh.
func (s *Simulator) profileKey(app workload.App, ph workload.Phase, seed int64) string {
	if s.store == nil {
		return ""
	}
	if i := ph.Index; i >= 0 && i < len(app.Phases) && samePhase(&app.Phases[i], &ph) {
		if e := s.appEncoding(app); e != nil {
			return artifact.EncodedKey(profileKind, seed, e.profiles[i])
		}
	}
	return storeKey(s.store, profileKind, seed, func() any { return s.profileParams(app, ph) })
}

// buildProfile builds (or loads) one phase profile through the store.
func (s *Simulator) buildProfile(app workload.App, ph workload.Phase) (pipeline.Profile, error) {
	seed := profileSeed(app.Name+app.Trace, ph.Index)
	return cached(s.store, profileKind, s.profileKey(app, ph, seed), decodeProfile, infallible(encodeProfile),
		func() (pipeline.Profile, error) {
			defer s.obs.Timer("core.profile.build").Start().Stop()
			return pipeline.BuildProfile(app, ph, s.opts.TraceLen, seed)
		})
}

// petableKey derives the petables artifact key: the tables are fully
// determined by the chip's stage models, i.e. by (varius params, seed).
func (s *Simulator) petableKey(seed int64) string {
	return storeKey(s.store, petableKind, seed, func() any { return s.opts.Varius })
}

// loadPETables reads chip seed's PE-fmax tables from the artifact cache
// (nil with no store, no entry, or a damaged one). The petables artifact
// holds every dense PE-fmax table earlier runs built for one chip.
// Unlike the other kinds there is no single build call site to wrap —
// tables accumulate lazily as controller invocations touch grid points —
// so the store's raw Get/Put surface is used instead of GetOrBuild: the
// chip's first table miss imports the record into the donor core's store
// (AcquireChip defers it), and ReleaseChip writes the run's tables back.
// Table values are exact float64 round-trips, so a warm run's solves are
// byte-identical to a cold run's.
func (s *Simulator) loadPETables(seed int64) []adapt.PETableSlot {
	key := s.petableKey(seed)
	if key == "" {
		return nil
	}
	var tabs []adapt.PETableSlot
	s.store.Get(petableKind, key, func(payload []byte) error {
		var derr error
		tabs, derr = decodePETables(payload)
		return derr
	})
	return tabs
}

// storePETables writes cpu's PE-fmax tables back to the artifact cache,
// skipping the write — and the export — when the store built no columns
// beyond what it imported.
func (s *Simulator) storePETables(cpu *adapt.Core, seed int64) {
	if s.store == nil || cpu.BuiltPEColumns() == 0 {
		return
	}
	if key := s.petableKey(seed); key != "" {
		s.store.Put(petableKind, key, encodePETables(cpu.ExportPETables()))
	}
}

// machineParams is the machine-model slice of key material every
// result-level artifact shares: everything that shapes a core's physics
// besides the technique configuration. The apprun, staticpt and solver
// pre-images splice its encoding in (see machineBlock), so its fields
// encode inline, first and in this order.
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

// solverName is the identity a dynamic solver contributes to apprun
// keys: the solver record key a chip's fuzzy controllers are named by
// (see HandleSolver), a fixed tag for the (stateless) exhaustive
// algorithm. Any other solver has no name, and an empty name disables
// apprun caching for the calling unit.
func solverName(solver adapt.Solver) string {
	switch sv := solver.(type) {
	case *chipSolver:
		return sv.name
	case adapt.Exhaustive:
		return "exh"
	}
	return ""
}

// appRunKey derives the apprun artifact key for one (chip, environment,
// mode, app[, phase]) unit, or "" when the unit is uncacheable (store
// disabled, dynamic mode without a solver name, or key material that
// does not encode). phase < 0 keys the whole app; phase >= 0 keys the
// single phase at that position in app.Phases. Dynamic modes must supply
// solver; Static mode must supply its operating point.
//
// The key material is the full machine model behind the chip's cores,
// the environment's technique configuration, the application's identity
// down to its phase tables, and the adaptation policy: solver is the
// dynamic solver's name (solverName) — for fuzzy controllers the key of
// their solver record, which pins everything training reads, so
// controllers trained otherwise never replay a stale run — and static is
// the chip's exact static operating point, whose float64 values
// fingerprint the conservative class profile it was derived from.
// The params object encodes as
//
//	{<machineParams fields>,"trace_len":…,"mode":…,
//	 "app":…[,"trace":…],"class":…,"phases":[…]
//	 [,"phase_only":…][,"solver":…][,"static":{…}]}
//
// — exactly what json.Marshal gives for a struct embedding
// machineParams followed by those fields with omitempty on the bracketed
// ones. phase_only is absent for whole-app runs, so their keys match
// the ones stored before phase-granular units existed. The machine block
// is encoded once per technique configuration (machineBlock) and the app
// block once per app (appEncoding); only the small per-unit fields are
// encoded per call, and artifact.EncodedKey hashes the envelope around
// the pieces, byte-identical to artifact.Key over the whole.
func (s *Simulator) appRunKey(seed int64, cfg tech.Config, app workload.App,
	mode Mode, solver string, static *adapt.OperatingPoint, phase int) string {
	if s.store == nil || (mode != Static && solver == "") || phase >= len(app.Phases) {
		return ""
	}
	machine := s.machineBlock(cfg)
	appEnc := s.appEncoding(app)
	if machine == nil || appEnc == nil {
		return ""
	}
	var buf [256]byte
	b := append(buf[:0], `,"trace_len":`...)
	b = strconv.AppendInt(b, int64(s.opts.TraceLen), 10)
	b = append(b, `,"mode":`...)
	b = strconv.AppendInt(b, int64(mode), 10)
	b = append(b, ',')
	mid := len(b)
	if phase >= 0 {
		b = append(b, `,"phase_only":`...)
		b = strconv.AppendInt(b, int64(phase), 10)
	}
	if solver != "" {
		enc, _ := json.Marshal(solver) // a string always encodes
		b = append(append(b, `,"solver":`...), enc...)
	}
	if static != nil {
		enc, err := json.Marshal(static)
		if err != nil {
			return ""
		}
		b = append(append(b, `,"static":`...), enc...)
	}
	b = append(b, '}')
	return artifact.EncodedKey(apprunKind, seed, machine, b[:mid], appEnc.block, b[mid:])
}

// anchorKey derives the apprun key of one Baseline or NoVar anchor run
// (see anchorRun) of app at fRel on chip seed, or "" without a store or
// when the key material does not encode. The params object is a
// whole-app unit's with the mode replaced by a field no adaptive unit
// carries, the anchor's environment name and frequency:
//
//	{<machineParams fields>,"trace_len":…,"anchor":{"env":…,"f_rel":…},
//	 "app":…[,"trace":…],"class":…,"phases":[…]}
//
// with the machine block of env's technique configuration (none for
// either anchor), spliced like appRunKey's.
func (s *Simulator) anchorKey(seed int64, env Environment, app workload.App, fRel float64) string {
	if s.store == nil {
		return ""
	}
	machine := s.machineBlock(env.Config())
	appEnc := s.appEncoding(app)
	anchor, err := json.Marshal(anchorID{Env: env.String(), FRel: fRel})
	if machine == nil || appEnc == nil || err != nil {
		return ""
	}
	var buf [128]byte
	b := append(buf[:0], `,"trace_len":`...)
	b = strconv.AppendInt(b, int64(s.opts.TraceLen), 10)
	b = append(append(append(b, `,"anchor":`...), anchor...), ',')
	return artifact.EncodedKey(apprunKind, seed, machine, b, appEnc.block, []byte("}"))
}

// anchorID is the anchor field of an anchor run's apprun key.
type anchorID struct {
	Env  string  `json:"env"`
	FRel float64 `json:"f_rel"`
}

// appIdentity is the app block's fields, in appRunKey's params order.
type appIdentity struct {
	App    string           `json:"app"`
	Trace  string           `json:"trace,omitempty"`
	Class  workload.Class   `json:"class"`
	Phases []workload.Phase `json:"phases"`
}

// encodedApp is one app's key material, encoded: its block, each
// phase's profileParams object (in phase order), and the identity they
// encode (Phases a private copy). Stored entries are never modified.
type encodedApp struct {
	id       appIdentity
	block    []byte
	profiles [][]byte
}

// machineBlock returns the params object's opening brace and the inline
// machineParams fields for cfg, or nil when the options do not encode (a
// NaN or infinite float), encoding them on first use.
func (s *Simulator) machineBlock(cfg tech.Config) []byte {
	if v, ok := s.machineBlocks.Load(cfg); ok {
		return v.([]byte)
	}
	enc, err := json.Marshal(s.machineParams(cfg))
	if err != nil {
		enc = nil
	} else {
		enc = enc[:len(enc)-1] // appRunKey's own fields follow before the brace
	}
	s.machineBlocks.Store(cfg, enc)
	return enc
}

// appEncoding returns app's encoded key material — its block, the
// appIdentity fields without braces, and its phases' profileParams — or
// nil when its phases do not encode. A stored entry is reused only while
// the app's trace, class and phases are bit-identical to those it was
// encoded from; otherwise the app is encoded afresh and replaces it.
func (s *Simulator) appEncoding(app workload.App) *encodedApp {
	if v, ok := s.appEncodings.Load(app.Name); ok {
		e := v.(*encodedApp)
		if e.id.Trace == app.Trace && e.id.Class == app.Class && samePhases(e.id.Phases, app.Phases) {
			return e
		}
	}
	e := &encodedApp{id: appIdentity{App: app.Name, Trace: app.Trace, Class: app.Class, Phases: slices.Clone(app.Phases)}}
	enc, err := json.Marshal(e.id)
	if err != nil {
		return nil
	}
	e.block = enc[1 : len(enc)-1]
	for _, ph := range e.id.Phases {
		enc, err := json.Marshal(s.profileParams(app, ph))
		if err != nil {
			return nil
		}
		e.profiles = append(e.profiles, enc)
	}
	s.appEncodings.Store(app.Name, e)
	return e
}

// samePhases reports whether a and b encode identically: both nil or
// both not (nil encodes as null), and phase by phase bit-identical. ==
// would not do: it equates 0 and -0, which encode apart.
func samePhases(a, b []workload.Phase) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if !samePhase(&a[i], &b[i]) {
			return false
		}
	}
	return true
}

// samePhase reports whether p and q encode identically, field by field
// bit-identical.
func samePhase(p, q *workload.Phase) bool {
	return p.Index == q.Index && p.Signature == q.Signature && sameBits(p.Weight, q.Weight) &&
		sameBits(p.Mix.LoadFrac, q.Mix.LoadFrac) && sameBits(p.Mix.StoreFrac, q.Mix.StoreFrac) &&
		sameBits(p.Mix.BranchFrac, q.Mix.BranchFrac) && sameBits(p.Mix.FPFrac, q.Mix.FPFrac) &&
		sameBits(p.Mix.DepDistMean, q.Mix.DepDistMean) &&
		sameBits(p.Mix.BranchMispredictRate, q.Mix.BranchMispredictRate) &&
		sameBits(p.Mix.L1MissRate, q.Mix.L1MissRate) && sameBits(p.Mix.L2MissRate, q.Mix.L2MissRate) &&
		sameBits(p.Mix.MemOverlap, q.Mix.MemOverlap)
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// staticPointKey keys StaticPoint(core, class, apps) for chip seed. The
// key material is the machine model, the technique configuration, and
// the identities of every class profile the conservative worst-case
// profile folds over, in fold order; the params object encodes as
//
//	{<machineParams fields>,"trace_len":…,"class":…,"suite":[…]}
//
// with a null suite when no app is of the class — what json.Marshal gives
// for a struct embedding machineParams followed by those fields, with
// the suite a []profileParams. The pre-image is spliced from the machine
// block and the class apps' profile encodings (appEncoding), so no
// call encodes more than its three small fields.
func (s *Simulator) staticPointKey(seed int64, cfg tech.Config, class workload.Class, apps []workload.App) string {
	if s.store == nil {
		return ""
	}
	machine := s.machineBlock(cfg)
	if machine == nil {
		return ""
	}
	var buf [64]byte
	b := append(buf[:0], `,"trace_len":`...)
	b = strconv.AppendInt(b, int64(s.opts.TraceLen), 10)
	b = append(b, `,"class":`...)
	b = strconv.AppendInt(b, int64(class), 10)
	b = append(b, `,"suite":`...)
	pieces := [][]byte{machine, b}
	comma := []byte(",")
	sep := []byte("[")
	for _, app := range apps {
		if app.Class != class {
			continue
		}
		e := s.appEncoding(app)
		if e == nil {
			return ""
		}
		for _, p := range e.profiles {
			pieces = append(pieces, sep, p)
			sep = comma
		}
	}
	if len(pieces) == 2 {
		pieces = append(pieces, []byte("null}"))
	} else {
		pieces = append(pieces, []byte("]}"))
	}
	return artifact.EncodedKey(staticptKind, seed, pieces...)
}

// solverTrainParams is the solver artifact's key material after the
// machine model: the training-chip seeds and the TrainOptions fields
// that shape the trained weights. Workers and Obs are deliberately
// absent: training output is byte-identical without them.
type solverTrainParams struct {
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

// solverKey keys the controllers TrainFuzzySolver fits for configuration
// cfg on the chips chipSeeds, or returns "" when the options do not
// encode. It is derived with or without a store: it is also the name
// HandleSolver gives the controllers. The params object is the machine
// model's fields followed inline by solverTrainParams' — what
// json.Marshal gives for a struct embedding machineParams and then
// solverTrainParams — and is spliced from the machine block and the
// encoded tail, so only the small tail is encoded per call.
func (s *Simulator) solverKey(cfg tech.Config, chipSeeds []int64, opts adapt.TrainOptions) string {
	machine := s.machineBlock(cfg)
	if machine == nil {
		return ""
	}
	tail, err := json.Marshal(solverTrainParams{
		ChipSeeds:    chipSeeds,
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
	})
	if err != nil {
		return ""
	}
	tail[0] = ',' // the machine block leaves its object open
	return artifact.EncodedKey(solverKind, opts.Seed, machine, tail)
}

// TrainFuzzyCached is adapt.TrainFuzzySolver behind the artifact store:
// when the full (machine config, technique config, chip seeds,
// TrainOptions) key matches a stored controller set, training is
// skipped and the stored solver — a byte-exact reproduction of the
// trained one — is returned. chipSeeds must list the generator seeds of
// the chips the cores were built from, in core order; that is what makes
// an evalsim run recognize what a fuzzytrain run produced.
func (s *Simulator) TrainFuzzyCached(cores []*adapt.Core, chipSeeds []int64, opts adapt.TrainOptions) (*adapt.FuzzySolver, error) {
	key := ""
	if s.store != nil && len(cores) > 0 && len(chipSeeds) == len(cores) {
		key = s.solverKey(cores[0].Config, chipSeeds, opts)
	}
	return cached(s.store, solverKind, key,
		func(payload []byte, sv **adapt.FuzzySolver) error {
			*sv = new(adapt.FuzzySolver)
			return (*sv).UnmarshalBinary(payload)
		},
		(*adapt.FuzzySolver).MarshalBinary,
		func() (*adapt.FuzzySolver, error) { return adapt.TrainFuzzySolver(cores, opts) })
}

// outcomesParams is the outcomes artifact's key material: one Figure 13
// unit — the machine model, the unit's technique configuration, the
// controllers' name (their solver record key), and the identity of every
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

// outcomesKey keys one Figure 13 (config × chip) unit. An empty solver
// name disables caching.
func (s *Simulator) outcomesKey(seed int64, cfg tech.Config, solver string, apps []workload.App) string {
	if solver == "" {
		return ""
	}
	return storeKey(s.store, outcomesKind, seed, func() any {
		return outcomesParams{
			Machine:  s.machineParams(cfg),
			TraceLen: s.opts.TraceLen,
			Solver:   solver,
			Suite:    s.suiteParams(apps, nil),
		}
	})
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
// the controllers' name (their solver record key), and the full pre-drawn
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

// table2Key keys one Table 2 (env × chip) unit; an empty solver name
// disables caching.
func (s *Simulator) table2Key(seed int64, cfg tech.Config, solver string, queries []t2Query) string {
	if solver == "" {
		return ""
	}
	return storeKey(s.store, table2Kind, seed, func() any {
		return table2Params{Machine: s.machineParams(cfg), Solver: solver, Queries: queries}
	})
}
