// Package adapt implements §4 of the paper: the High-Dimensional dynamic
// adaptation that chooses, at every application phase, the core frequency,
// per-subsystem supply voltage and body bias, the issue-queue size, and the
// functional-unit replica, so as to maximize frequency subject to the
// error-rate, temperature, and power constraints.
//
// It provides the two-step Freq/Power decomposition of §4.2 with two
// interchangeable per-subsystem solvers — the offline Exhaustive search of
// §4.3.1 and the trained fuzzy controllers — plus the retuning cycles of
// §4.3.3 that repair controller misestimates, and the outcome
// classification behind Figure 13.
//
// # Ownership
//
// A Core carries an unsynchronized memo, so an individual Core must only
// be driven by one goroutine at a time. It owns one: the Evaluate memo
// (full SystemStates by exact operating-point + profile key), bounded by
// a cap. While the memo is below its cap (MemoComplete), solving a phase
// again returns its first result bit for bit, so a caller that keeps a
// unit's first answer, as the fleet's per-chip table does, needs no
// second memo here. The PE-fmax table store underneath is different:
// its lazy builds publish through sync.Once-style atomic flags, so one
// store may back any number of cores on any number of goroutines
// concurrently — tables are built at most once and every reader
// observes a fully-built table. Two sharing patterns follow:
//
//   - WithConfig derives a core for another technique configuration over
//     the same chip and store (e.g. the six environment cores of one
//     chip); the cores may then be driven from different worker
//     goroutines, as the (chip × environment) work queue of the experiment
//     harness does. The fleet service keeps one core per (chip,
//     environment) and drives all of a chip's cores from the chip's owner
//     worker.
//   - WorkerView clones a core into a per-goroutine view with an empty
//     memo over the shared read-only models and table store; the parallel
//     fuzzy-training pipeline hands one view per worker slot.
//
// The store lives as long as the cores that share it, and it is lazy
// from the start: NewCore allocates no table array. A caller that holds
// tables from an earlier run (the artifact store's petables record)
// registers them with DeferPETables before sharing the core; the first
// query that misses the store imports them once, outside the store
// lock, and only then builds. The first column built or imported
// allocates the array, so cores whose work is all answered elsewhere
// never pay for it. ExportPETables snapshots the store for persistence,
// and BuiltPEColumns says whether anything beyond the import was built.
//
// Besides the memo, a Core privately owns a warm-started
// thermal.Solver (its scratch buffers carry the previous converged state
// between Evaluate calls), the key, thermal-input, and stage-curve
// scratch Evaluate reuses, and the Freq search's combo queue and leakage
// table (filled on first use). Cached SystemStates alias one shared Subs
// slice per entry. All of it is single-goroutine state, and WorkerView
// replaces every piece with a fresh instance so views never share
// mutable scratch.
package adapt

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/checker"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/tech"
	"repro/internal/thermal"
	"repro/internal/vats"
	"repro/internal/workload"
)

// Limits are the optimization constraints of §4.1 / Figure 7(a).
type Limits struct {
	PMaxW  float64 // per-processor power cap (core + L1 + L2 + checker)
	TMaxK  float64 // per-subsystem temperature cap
	THMaxK float64 // heat-sink temperature cap
	PEMax  float64 // total errors per instruction
}

// DefaultLimits returns Figure 7(a): PMAX=30 W, TMAX=85 C, TH_MAX=70 C,
// PE_MAX=1e-4 err/inst.
func DefaultLimits() Limits {
	return Limits{
		PMaxW:  30,
		TMaxK:  85 + 273.15,
		THMaxK: 70 + 273.15,
		PEMax:  1e-4,
	}
}

// Validate checks the limits.
func (l Limits) Validate() error {
	if l.PMaxW <= 0 || l.TMaxK <= 273.15 || l.THMaxK <= 273.15 || l.PEMax <= 0 {
		return fmt.Errorf("adapt: invalid limits %+v", l)
	}
	return nil
}

// Subsystem bundles one subsystem's optimization view: its timing model and
// the per-subsystem constants of §4.1 (Rth, Kdyn, Ksta, Vt0) that the
// manufacturer measures and stores on chip.
type Subsystem struct {
	Index   int
	Sub     floorplan.Subsystem
	Stage   *vats.Stage
	Vt0EffV float64
}

// Core is the optimization view of one processor core on one chip.
type Core struct {
	Subs    []Subsystem
	Power   *power.Model
	Thermal *thermal.Model
	Checker checker.Config
	Config  tech.Config
	Limits  Limits

	// Obs, when non-nil, receives controller-invocation outcome counters,
	// retune-cycle counters, and solver timings. Nil (the default) is a
	// zero-cost no-op.
	Obs *obs.Registry

	// DisablePruning switches FreqSolve to the reference slow path (the
	// plain grid-order scan, with no bounds) and bypasses the Evaluate
	// memo, so MemoComplete reads false. Results are identical either way
	// (the equivalence tests assert it); the knob exists so the fast path
	// can always be checked against the scan.
	DisablePruning bool

	pe *peStore

	// solver is the core's private warm-started thermal solver: Evaluate
	// drives every CoreSteady through it so successive retune probes reuse
	// the previous converged state. Owned by the core's goroutine, like the
	// memo; WorkerView hands out a fresh one.
	solver *thermal.Solver
	// evalMemo caches full Evaluate results by exact operating-point +
	// profile key; evalKey is the reused scratch buffer the key is encoded
	// into, and evalIns the reused thermal-input scratch. Cached
	// SystemStates share their Core.Subs slice across hits and must be
	// treated as read-only (they are: callers only read).
	evalMemo map[string]SystemState
	evalKey  []byte
	evalIns  []thermal.SubsystemInput
	// evalCurve is the reused stage-curve scratch for evaluate's real
	// error-rate pass — one Curve per Core instead of one per
	// (subsystem, evaluation).
	evalCurve vats.Curve
	// freq is the best-first Freq search's scratch, leakage table included.
	freq freqScratch
}

// NewCore validates and assembles the optimization view.
func NewCore(subs []Subsystem, pw *power.Model, th *thermal.Model,
	chk checker.Config, cfg tech.Config, lim Limits) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := lim.Validate(); err != nil {
		return nil, err
	}
	if err := chk.Validate(); err != nil {
		return nil, err
	}
	if len(subs) == 0 {
		return nil, fmt.Errorf("adapt: no subsystems")
	}
	for i, s := range subs {
		if s.Index != i {
			return nil, fmt.Errorf("adapt: subsystem %d has index %d", i, s.Index)
		}
		if s.Stage == nil {
			return nil, fmt.Errorf("adapt: subsystem %d has no stage model", i)
		}
	}
	return &Core{
		Subs:     subs,
		Power:    pw,
		Thermal:  th,
		Checker:  chk,
		Config:   cfg,
		Limits:   lim,
		pe:       newPEStore(len(subs)),
		solver:   thermal.NewSolver(th),
		evalMemo: make(map[string]SystemState),
	}, nil
}

// N returns the number of subsystems.
func (c *Core) N() int { return len(c.Subs) }

// WithConfig returns a core for technique configuration cfg over this
// core's subsystems, models, limits, and PE-table store, with an empty
// memo and fresh scratch as WorkerView gives. The tables depend only on
// the stage models, not on the configuration, so the cores one chip's
// environments get this way share one store and amortize the vats.Curve
// evaluations. The store is safe for concurrent use, so those cores may
// run on different goroutines; each individual core still belongs to one
// goroutine (see the package comment).
func (c *Core) WithConfig(cfg tech.Config) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	v := c.WorkerView()
	v.Config = cfg
	return v, nil
}

// PETableSlot is one built dense PE-fmax table in serializable form: the
// flat store slot it occupies, the bitmask of built budget columns, and
// the inverse-table values. The slot index encodes (subsystem, variant,
// vddIdx, vbbIdx, tempIdx) exactly as the dense store lays them out, so
// a chip's tables are stored and imported without re-deriving grid
// coordinates. Columns whose Mask bit is clear were never built and
// carry no meaning.
type PETableSlot struct {
	Slot int
	Mask uint8
	FMax [len(peBudgets)]float64
}

// ExportPETables snapshots every dense PE-fmax table with at least one
// built budget column. Safe to call concurrently with readers and
// builders: the store mutex is held across the snapshot so no
// half-written column is observed. Off-grid queries keep no tables (see
// tableRef), so there is nothing else to export.
func (c *Core) ExportPETables() []PETableSlot {
	var out []PETableSlot
	c.pe.mu.Lock()
	if t := c.pe.tabs.Load(); t != nil {
		for slot := range t.dense {
			if m := t.built[slot].Load(); m != 0 {
				out = append(out, PETableSlot{Slot: slot, Mask: uint8(m), FMax: t.dense[slot].fmax})
			}
		}
	}
	c.pe.mu.Unlock()
	return out
}

// DeferPETables registers src as the table store's deferred source: the
// first query that misses the store calls src once, outside the store
// lock, and imports what it returns before building any column, skipping
// out-of-range slots (a floorplan or grid change between runs). A run
// whose queries all hit (or that never queries) never calls src, and
// src may return nil. Register it before the core answers a query or is
// shared; cores derived by WithConfig and WorkerView share the store,
// and with it the source.
func (c *Core) DeferPETables(src func() []PETableSlot) {
	c.pe.deferred = src
}

// BuiltPEColumns returns how many dense PE-fmax table columns the store
// built itself rather than imported: the columns a persisted copy of the
// tables lacks.
func (c *Core) BuiltPEColumns() int {
	c.pe.mu.Lock()
	defer c.pe.mu.Unlock()
	return c.pe.nBuilt
}

// WorkerView returns a core that shares this core's immutable models
// (stages, power, thermal, checker, limits) and its concurrency-safe
// PE-table store, but owns an empty Evaluate memo and fresh scratch.
// Views are how a worker pool divides one chip's solve work: each
// goroutine drives its own view, warm tables are shared, and the
// unsynchronized memo and scratch buffers are never contended. Solve
// results are bitwise identical to the parent's.
func (c *Core) WorkerView() *Core {
	v := *c
	v.solver = thermal.NewSolver(c.Thermal)
	v.evalMemo = make(map[string]SystemState)
	v.evalKey = nil
	v.evalIns = nil
	v.evalCurve = vats.Curve{}
	v.freq = freqScratch{}
	return &v
}

// The structural variants the techniques of §3.3 can request. Only three
// exist in the system — identity, the 3/4-queue Shift, and the LowSlope
// Tilt — so the dense PE store enumerates them; anything else (figure
// generators sweep synthetic variants) builds an uncached table.
const peNumVariants = 3

// variantIndex maps a variant to its dense-store index.
func variantIndex(v vats.Variant) (int, bool) {
	switch v {
	case vats.IdentityVariant():
		return 0, true
	case tech.QueueThreeQuarter.Variant():
		return 1, true
	case tech.FULowSlope.Variant():
		return 2, true
	}
	return 0, false
}

// peStore holds one chip's PE-fmax tables: a flat array indexed by
// (subsystem, variant, vddIdx, vbbIdx, tempIdx) for queries on the
// discrete actuation grids — no hashing, no pointer chasing. The
// PE-limited fmax at a device temperature depends only on the subsystem,
// the structural variant, the (Vdd, Vbb) point and the temperature — not
// on TH or activity — so each table builds on first touch and serves
// every later controller invocation on the chip.
//
// The store is safe for concurrent use by the cores that share it. Dense
// slots build one budget *column* at a time and publish through per-slot
// atomic column masks: the fast path is a single atomic load of
// built[slot] checked against the needed column bits, and builders take
// mu, re-check, fill the missing columns, and only then Store the widened
// mask — so a reader that observes a column's bit also observes the
// completed column, and each column is built at most once. Column
// laziness matters because a query touches at most two of the eight
// budget columns and the solver paths only ever probe a narrow budget
// band, so building whole tables eagerly wastes most of the
// erfc-dominated bisection work. scratch is the mutex-guarded curve
// arena every dense build reuses.
//
// The array itself is lazy too: tabs stays nil until the first column is
// built or imported, so a store with no columns holds no array. A chip
// whose units are all answered from the artifact store never pays the
// allocation. The deferred source (see DeferPETables) is imported by the
// first miss, through loadOnce and ahead of mu, so the caller-supplied
// read never runs under the store lock.
type peStore struct {
	nSubs    int
	tabs     atomic.Pointer[peTables]
	deferred func() []PETableSlot // read only inside loadOnce
	loadOnce sync.Once
	mu       sync.Mutex
	nBuilt   int // (slot, column) entries the store built, imports excluded; under mu
	scratch  vats.Curve
}

// peTables is a store's dense array and its per-slot column masks.
type peTables struct {
	dense []peTable
	built []atomic.Uint32
}

func newPEStore(nSubs int) *peStore {
	return &peStore{nSubs: nSubs}
}

// slots returns the dense array's length.
func (p *peStore) slots() int {
	return p.nSubs * peNumVariants * tech.NumVddLevels * tech.NumVbbLevels * len(peTempsC)
}

// tablesLocked returns the dense array, allocating it on first use.
// Caller holds mu.
func (p *peStore) tablesLocked() *peTables {
	t := p.tabs.Load()
	if t == nil {
		t = &peTables{dense: make([]peTable, p.slots()), built: make([]atomic.Uint32, p.slots())}
		p.tabs.Store(t)
	}
	return t
}

// loadDeferred imports the deferred source's tables, once per store and
// ahead of the first build, and counts the filled columns in reg. The
// source runs outside mu; the array is allocated only for a column to
// fill.
func (p *peStore) loadDeferred(reg *obs.Registry) {
	p.loadOnce.Do(func() {
		if p.deferred == nil {
			return
		}
		tabs := p.deferred()
		p.deferred = nil
		n := 0
		p.mu.Lock()
		for _, in := range tabs {
			if in.Slot < 0 || in.Slot >= p.slots() || in.Mask == 0 {
				continue
			}
			t := p.tablesLocked()
			cur := t.built[in.Slot].Load()
			add := uint32(in.Mask) &^ cur
			for bi := range peBudgets {
				if add>>bi&1 == 1 {
					t.dense[in.Slot].fmax[bi] = in.FMax[bi]
					n++
				}
			}
			t.built[in.Slot].Store(cur | add)
		}
		p.mu.Unlock()
		reg.Counter("adapt.pe.imported_columns").Add(int64(n))
	})
}

// peBudgets are the error-budget grid points of the cached inverse tables;
// queries interpolate in log-budget between them.
var peBudgets = [...]float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}

// peLogBudgets precomputes log10 of each budget grid point once; query
// interpolates against these instead of recomputing two logarithms per
// bracket probe (math.Log10 dominated the warm experiment profile).
var peLogBudgets = func() [len(peBudgets)]float64 {
	var lb [len(peBudgets)]float64
	for i, b := range peBudgets {
		lb[i] = math.Log10(b)
	}
	return lb
}()

// peTempsC are the device-temperature grid points (Celsius); queries
// interpolate linearly in temperature between adjacent tables. Hotter
// devices are slower, which is what turns high-activity subsystems (FUs,
// issue queues) into frequency limiters once ASV pushes power up (§6.2).
var peTempsC = [...]float64{45, 55, 65, 75, 85, 95}

type peTable struct {
	fmax [len(peBudgets)]float64
}

// peRef is a (subsystem, variant, Vdd, Vbb) coordinate resolved against
// the dense store once per scan, so the hot solve loops stop re-deriving
// variant and actuation-level indices (tech.VddIndex/VbbIndex round and
// compare per call) on every table touch.
type peRef struct {
	sub        int
	vi, di, bi int
	dense      bool
	v          vats.Variant
	vddV, vbbV float64
}

// peRefFor resolves the coordinate; off-grid levels and exotic variants
// yield a non-dense ref, whose tables tableRef builds afresh.
func (c *Core) peRefFor(sub int, v vats.Variant, vddV, vbbV float64) peRef {
	r := peRef{sub: sub, v: v, vddV: vddV, vbbV: vbbV}
	if vi, ok := variantIndex(v); ok {
		if di, ok := tech.VddIndex(vddV); ok {
			if bi, ok := tech.VbbIndex(vbbV); ok {
				r.vi, r.di, r.bi, r.dense = vi, di, bi, true
			}
		}
	}
	return r
}

// slot returns the ref's dense-store slot at temperature index tIdx.
func (r *peRef) slot(tIdx int) int {
	return (((r.sub*peNumVariants+r.vi)*tech.NumVddLevels+r.di)*tech.NumVbbLevels+r.bi)*len(peTempsC) + tIdx
}

// budgetQuery is a stage budget resolved against the budget grid once per
// scan: the bracketing columns, the log-interpolation abscissa, and the
// bitmask of columns a query touches. The resolution reproduces query's
// branch structure exactly, so interpolated values are bit-identical.
type budgetQuery struct {
	lo, hi int
	lb     float64 // log10(budget); meaningful only when lo != hi
	need   uint32
}

func budgetQueryFor(budget float64) budgetQuery {
	if budget <= peBudgets[0] {
		return budgetQuery{lo: 0, hi: 0, need: 1}
	}
	last := len(peBudgets) - 1
	if budget >= peBudgets[last] {
		return budgetQuery{lo: last, hi: last, need: 1 << last}
	}
	lb := math.Log10(budget)
	for i := 0; i < last; i++ {
		if lb <= peLogBudgets[i+1] {
			return budgetQuery{lo: i, hi: i + 1, lb: lb, need: 3 << i}
		}
	}
	return budgetQuery{lo: last, hi: last, need: 1 << last}
}

// tempQuery is a device temperature resolved against the temperature grid
// once: the bracketing table indices and interpolation fraction. lo == hi
// encodes the clamped (single-table) cases.
type tempQuery struct {
	lo, hi int
	frac   float64
}

func tempQueryFor(tK float64) tempQuery {
	tC := tK - 273.15
	last := len(peTempsC) - 1
	switch {
	case tC <= peTempsC[0]:
		return tempQuery{}
	case tC >= peTempsC[last]:
		return tempQuery{lo: last, hi: last}
	}
	hi := 1
	for peTempsC[hi] < tC {
		hi++
	}
	lo := hi - 1
	return tempQuery{lo: lo, hi: hi, frac: (tC - peTempsC[lo]) / (peTempsC[hi] - peTempsC[lo])}
}

// tableRef returns (building the needed columns if necessary) the ref's
// inverse table at temperature grid index tIdx. Dense refs hit the flat
// store by index arithmetic alone. A non-dense ref — an off-grid level
// or an exotic variant, which no experiment queries — gets a fresh
// table from the reference builder on every call; it touches no shared
// state, so it needs no lock.
func (c *Core) tableRef(ref *peRef, tIdx int, need uint32) *peTable {
	if !ref.dense {
		tab := new(peTable)
		c.buildTable(tab, ref.sub, ref.v, ref.vddV, ref.vbbV, tIdx)
		return tab
	}
	slot := ref.slot(tIdx)
	if t := c.pe.tabs.Load(); t != nil && t.built[slot].Load()&need == need {
		return &t.dense[slot]
	}
	return c.buildCols(slot, ref, tIdx, need)
}

// buildCols fills slot's missing columns from need and returns its table.
// The store's deferred tables are imported first, so a column they hold
// is never built.
func (c *Core) buildCols(slot int, ref *peRef, tIdx int, need uint32) *peTable {
	c.pe.loadDeferred(c.Obs)
	c.pe.mu.Lock()
	t := c.pe.tablesLocked()
	tab := &t.dense[slot]
	cur := t.built[slot].Load()
	miss := need &^ cur
	if miss == 0 {
		c.pe.mu.Unlock()
		return tab
	}
	tK := peTempsC[tIdx] + 273.15
	cv := c.Subs[ref.sub].Stage.EvalInto(
		vats.Cond{VddV: ref.vddV, VbbV: ref.vbbV, TK: tK}, ref.v, &c.pe.scratch)
	var bud, res [len(peBudgets)]float64
	var cols [len(peBudgets)]int
	k := 0
	for bi := range peBudgets {
		if miss>>bi&1 == 1 {
			cols[k], bud[k] = bi, peBudgets[bi]
			k++
		}
	}
	cv.FMaxForPESet(bud[:k], res[:k])
	for j := 0; j < k; j++ {
		tab.fmax[cols[j]] = res[j]
	}
	c.pe.nBuilt += k
	t.built[slot].Store(cur | miss)
	c.pe.mu.Unlock()
	c.Obs.Counter("adapt.pe.built_columns").Add(int64(k))
	return tab
}

// buildTable fills one inverse table from the stage's error curve, one
// independent FMaxForPE bisection per budget column — the reference
// builder the batched dense path is tested against, and the builder of
// every off-grid table.
func (c *Core) buildTable(tab *peTable, sub int, v vats.Variant, vddV, vbbV float64, tIdx int) {
	tK := peTempsC[tIdx] + 273.15
	curve := c.Subs[sub].Stage.Eval(vats.Cond{VddV: vddV, VbbV: vbbV, TK: tK}, v)
	for bi, b := range peBudgets {
		tab.fmax[bi] = curve.FMaxForPE(b)
	}
}

// peFMax returns the maximum relative frequency at which the subsystem's
// per-access error probability stays within budget when its devices sit at
// temperature tK, interpolated from the per-chip cache.
func (c *Core) peFMax(sub int, v vats.Variant, vddV, vbbV, budget, tK float64) float64 {
	ref := c.peRefFor(sub, v, vddV, vbbV)
	return c.peFMaxQ(&ref, budgetQueryFor(budget), tempQueryFor(tK))
}

// peFMaxQ is peFMax over pre-resolved coordinates: the scan loops resolve
// the ref and budget once and pay only the temperature bracket per call.
func (c *Core) peFMaxQ(ref *peRef, bq budgetQuery, tq tempQuery) float64 {
	if tq.lo == tq.hi {
		return c.tableRef(ref, tq.lo, bq.need).queryBQ(bq)
	}
	fLo := c.tableRef(ref, tq.lo, bq.need).queryBQ(bq)
	fHi := c.tableRef(ref, tq.hi, bq.need).queryBQ(bq)
	return fLo + tq.frac*(fHi-fLo)
}

// queryBQ interpolates the inverse table in log10(budget) using the
// pre-resolved bracket; bit-identical to interpolating from the raw
// budget (same columns, same abscissa, same expression).
func (t *peTable) queryBQ(q budgetQuery) float64 {
	if q.lo == q.hi {
		return t.fmax[q.lo]
	}
	lo, hi := peLogBudgets[q.lo], peLogBudgets[q.hi]
	frac := (q.lb - lo) / (hi - lo)
	return t.fmax[q.lo] + frac*(t.fmax[q.hi]-t.fmax[q.lo])
}

// SixInputs are the per-subsystem controller inputs of §4.1: the heat-sink
// temperature and activity factor (sensed at run time) plus the four
// manufacturer-measured constants.
type SixInputs struct {
	THK      float64
	RthKPerW float64
	KdynW    float64
	AlphaF   float64
	KstaW    float64
	Vt0EffV  float64
}

// Vector flattens the inputs for the fuzzy controllers.
func (s SixInputs) Vector() []float64 {
	a := s.Array()
	return a[:]
}

// Array flattens the inputs without allocating — the warm-path solver
// queries keep the vector on the stack.
func (s SixInputs) Array() [6]float64 {
	return [6]float64{s.THK, s.RthKPerW, s.KdynW, s.AlphaF, s.KstaW, s.Vt0EffV}
}

// Inputs assembles the six controller inputs for subsystem i.
func (c *Core) Inputs(i int, thK, alphaF float64) SixInputs {
	return SixInputs{
		THK:      thK,
		RthKPerW: c.Thermal.Rth(i),
		KdynW:    c.Power.Kdyn(i),
		AlphaF:   alphaF,
		KstaW:    c.Power.Ksta(i),
		Vt0EffV:  c.Subs[i].Vt0EffV,
	}
}

// FreqQuery parameterizes one per-subsystem Freq solve.
type FreqQuery struct {
	THK     float64
	AlphaF  float64 // accesses per cycle (power/thermal)
	Rho     float64 // accesses per instruction (PE budget weighting)
	Variant vats.Variant
	// PowerMult reflects the structure choice (LowSlope FU: 1.3).
	PowerMult float64
}

// FreqResult is the outcome of a Freq solve: the subsystem's maximum
// feasible frequency and the (Vdd, Vbb) that achieves it.
type FreqResult struct {
	FMax float64
	VddV float64
	VbbV float64
}

// stageBudget converts the processor-wide PE limit into this stage's
// per-access budget: the paper conservatively gives each of the n
// subsystems PEMAX/n per instruction, and rho accesses per instruction
// share it.
func (c *Core) stageBudget(rho float64) float64 {
	perSub := c.Limits.PEMax / float64(c.N())
	if rho < 1e-3 {
		rho = 1e-3 // a nearly idle stage still gets a finite budget
	}
	return perSub / rho
}

// subsystemInput is subsystem i's thermal input at (vdd, vbb) and fRel
// under query q.
func (c *Core) subsystemInput(i int, q FreqQuery, vdd, vbb, fRel float64) thermal.SubsystemInput {
	return thermal.SubsystemInput{
		Index:     i,
		Vt0Eff:    c.Subs[i].Vt0EffV,
		AlphaF:    q.AlphaF,
		VddV:      vdd,
		VbbV:      vbb,
		FRel:      fRel,
		PowerMult: q.PowerMult,
	}
}

// comboFMax finds the highest frequency subsystem i supports at a fixed
// (Vdd, Vbb): the paper's per-combination step of the Freq algorithm, which
// "computes, for each f, Vdd, and Vbb value combination, the resulting
// subsystem T and PE". The thermal cap is closed-form; the error cap is the
// fixed point of f = fPE(T_steady(f)), found by damped iteration (fPE
// decreases in T, T increases in f).
func (c *Core) comboFMax(i int, q FreqQuery, vdd, vbb float64, bq budgetQuery) float64 {
	ref := c.peRefFor(i, q.Variant, vdd, vbb)
	fT := c.Thermal.FRelMaxForTemp(c.subsystemInput(i, q, vdd, vbb, 0), q.THK, c.Limits.TMaxK)
	return c.comboFMaxRef(i, q, &ref, bq, fT)
}

// comboFMaxRef is comboFMax over a pre-resolved (Vdd, Vbb) ref, budget
// bracket and thermal cap fT. Every damped iterate is at most fT, and so
// is the mean of two of them, so the result never exceeds fT.
func (c *Core) comboFMaxRef(i int, q FreqQuery, ref *peRef, bq budgetQuery, fT float64) float64 {
	if fT <= tech.FRelMin {
		return 0
	}
	in := c.subsystemInput(i, q, ref.vddV, ref.vbbV, 0)
	// Start from the conservative hottest-case estimate and relax.
	f := math.Min(c.peFMaxQ(ref, bq, tempQueryFor(c.Limits.TMaxK)), fT)
	for iter := 0; iter < 4; iter++ {
		in.FRel = math.Min(f, tech.FRelMax)
		st := c.Thermal.SubsystemSteady(in, q.THK)
		tK := math.Min(st.TK, c.Limits.TMaxK)
		fNew := math.Min(c.peFMaxQ(ref, bq, tempQueryFor(tK)), fT)
		if math.Abs(fNew-f) < tech.FRelStep/4 {
			f = math.Min(f, fNew)
			break
		}
		f = 0.5*f + 0.5*fNew
	}
	return f
}

// thermalCap returns Thermal.FRelMaxForTemp for the combo at ref under q.
// For on-grid levels it reads the static power at TMAX from the core's
// leakage table, filled on first use, instead of paying an Exp per call;
// the result is the same bit for bit.
func (c *Core) thermalCap(q FreqQuery, ref *peRef) float64 {
	in := c.subsystemInput(ref.sub, q, ref.vddV, ref.vbbV, 0)
	tmax := c.Limits.TMaxK
	if !ref.dense {
		return c.Thermal.FRelMaxForTemp(in, q.THK, tmax)
	}
	s := &c.freq
	if s.leak == nil || s.leakTMaxK != tmax {
		s.leak = make([]float64, c.N()*tech.NumVddLevels*tech.NumVbbLevels)
		s.leakTMaxK = tmax
	}
	k := (ref.sub*tech.NumVddLevels+ref.di)*tech.NumVbbLevels + ref.bi
	if s.leak[k] == 0 {
		s.leak[k] = c.Thermal.LeakageAt(in, tmax)
	}
	return c.Thermal.FRelMaxForLeakage(in, q.THK, tmax, s.leak[k])
}

// sinkQuery resolves the temperature of the Freq search's PE bound: the
// heat sink's, capped at TMAX as comboFMaxRef clamps. Devices are no
// cooler than the sink and fPE falls with temperature, so fPE there bounds
// comboFMaxRef after the snap. Below the grid floor a low supply under
// reverse body bias can run faster hot, but such combos snap to FRelMin
// either way (TestFreqBoundsHold checks both).
func (c *Core) sinkQuery(thK float64) tempQuery {
	return tempQueryFor(math.Min(thK, c.Limits.TMaxK))
}

// freqSteps is the number of points on the frequency grid FRelMin..FRelMax.
const freqSteps = int((tech.FRelMax-tech.FRelMin)/tech.FRelStep) + 1

// snapFreq is the Freq solve's snap of a combo's frequency onto the grid.
func snapFreq(f float64) float64 { return tech.SnapFRelDown(math.Min(f, tech.FRelMax)) }

// freqStep returns the grid step (0 at FRelMin) of a snapped frequency, or
// -1 for NaN, which no comparison of the grid-order scan selects.
func freqStep(snapped float64) int {
	if math.IsNaN(snapped) {
		return -1
	}
	return int(math.Round((snapped - tech.FRelMin) / tech.FRelStep))
}

// freqCombo is one (Vdd, Vbb) combo of a best-first Freq search.
type freqCombo struct {
	ref     peRef
	fT      float64 // thermal cap
	refined bool    // the sink-temperature PE bound has been applied
}

// freqScratch is the best-first Freq search's per-core scratch: the
// combos in canonical order (Vdd-major, Vbb-minor), the bucket queue, and
// the leakage table behind thermalCap.
type freqScratch struct {
	combos []freqCombo
	// queue holds freqSteps bitsets of combo indices, one per grid step;
	// words is the length of one bitset.
	queue []uint64
	words int
	// leak[(sub*NumVddLevels+di)*NumVbbLevels+bi] is Thermal.LeakageAt at
	// leakTMaxK, 0 until first use.
	leak      []float64
	leakTMaxK float64
}

// reset sizes the scratch for n combos and empties the queue.
func (s *freqScratch) reset(n int) {
	s.combos = slices.Grow(s.combos[:0], n)[:n]
	s.words = (n + 63) / 64
	s.queue = slices.Grow(s.queue[:0], freqSteps*s.words)[:freqSteps*s.words]
	clear(s.queue)
}

// push files combo k under grid step st.
func (s *freqScratch) push(st, k int) {
	s.queue[st*s.words+k/64] |= 1 << (k % 64)
}

// pop removes and returns the lowest combo index filed under grid step st,
// or -1 if there is none.
func (s *freqScratch) pop(st int) int {
	set := s.queue[st*s.words : (st+1)*s.words]
	for w, x := range set {
		if x != 0 {
			set[w] = x & (x - 1)
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	return -1
}

// FreqSolve runs the exhaustive Freq algorithm of §4.2 for subsystem i:
// over all (Vdd, Vbb) levels, the highest frequency that violates neither
// the temperature cap nor the stage's share of the error budget, with the
// subsystem's delay evaluated at its own steady-state temperature, over
// the core configuration's level grids.
func (c *Core) FreqSolve(i int, q FreqQuery) FreqResult {
	return c.FreqSolveAt(i, q, c.Config.VddLevels(nominalVdd), c.Config.VbbLevels())
}

// FreqSolveAt is FreqSolve restricted to explicit actuation-level lists —
// used by ablations such as a single chip-wide ASV domain.
//
// The result is that of the grid-order scan DisablePruning runs: the
// highest snapped frequency, and among the combos that reach it the first
// in canonical order (Vdd-major, Vbb-minor). The fast path finds it
// best-first. A combo's snapped frequency is bounded by its snapped
// thermal cap fT, which costs no Exp once the leakage table holds the
// combo, and by its PE-limited fmax at the sink temperature (see
// sinkQuery). Combos wait in a bucket queue keyed by the snapped bound,
// seeded with fT alone, and each bucket is drained in canonical order. A
// combo reached for the first time gets the PE bound, which builds its
// sink-temperature table columns only now; if that lowers its bucket it
// moves down, and otherwise its fixed point runs. The search stops at the
// first bucket below the incumbent, and within the incumbent's bucket it
// visits only lower canonical indices: that tie rule is what makes the
// two paths agree bit for bit.
func (c *Core) FreqSolveAt(i int, q FreqQuery, vdds, vbbs []float64) FreqResult {
	bq := budgetQueryFor(c.stageBudget(q.Rho))
	var best FreqResult
	if c.DisablePruning {
		for _, vdd := range vdds {
			for _, vbb := range vbbs {
				f := snapFreq(c.comboFMax(i, q, vdd, vbb, bq))
				if f > best.FMax+1e-12 {
					best = FreqResult{FMax: f, VddV: vdd, VbbV: vbb}
				}
			}
		}
		return best
	}
	s := &c.freq
	s.reset(len(vdds) * len(vbbs))
	for a, vdd := range vdds {
		for b, vbb := range vbbs {
			k := a*len(vbbs) + b
			cb := &s.combos[k]
			cb.ref = c.peRefFor(i, q.Variant, vdd, vbb)
			cb.fT = c.thermalCap(q, &cb.ref)
			cb.refined = false
			// A NaN cap makes the fixed point NaN, which never wins.
			if st := freqStep(snapFreq(cb.fT)); st >= 0 {
				s.push(st, k)
			}
		}
	}
	sinkQ := c.sinkQuery(q.THK)
	bestStep, bestK, ran := -1, -1, 0
	for st := freqSteps - 1; st >= 0 && st >= bestStep; st-- {
		for k := s.pop(st); k >= 0; k = s.pop(st) {
			if st == bestStep && k > bestK {
				break // the rest of the bucket loses the tie
			}
			cb := &s.combos[k]
			if !cb.refined {
				cb.refined = true
				bound := snapFreq(math.Min(cb.fT, c.peFMaxQ(&cb.ref, bq, sinkQ)))
				if r := freqStep(bound); r >= 0 && r < st {
					s.push(r, k)
					continue
				}
			}
			ran++
			f := snapFreq(c.comboFMaxRef(i, q, &cb.ref, bq, cb.fT))
			if fs := freqStep(f); fs > bestStep || fs == bestStep && k < bestK {
				bestStep, bestK = fs, k
				best = FreqResult{FMax: f, VddV: cb.ref.vddV, VbbV: cb.ref.vbbV}
			}
		}
	}
	if pruned := len(s.combos) - ran; pruned > 0 {
		c.Obs.Counter("adapt.freq.pruned_combos").Add(int64(pruned))
	}
	return best
}

// nominalVdd is the design supply; tech.Config pins Vdd here without ASV.
const nominalVdd = 1.0

// PowerResult is the outcome of a Power solve.
type PowerResult struct {
	VddV, VbbV float64
	State      thermal.SubsystemState
	Feasible   bool
}

// PowerSolve runs the exhaustive Power algorithm of §4.2 for subsystem i:
// given the chosen core frequency, the (Vdd, Vbb) that minimizes subsystem
// power while still meeting the frequency at the temperature and error
// constraints. If no level pair meets fCore, the fastest pair is returned
// with Feasible=false (retuning will pull the core frequency down).
func (c *Core) PowerSolve(i int, fCore float64, q FreqQuery) PowerResult {
	bq := budgetQueryFor(c.stageBudget(q.Rho))
	thq := tempQueryFor(q.THK)
	var best PowerResult
	bestPower := math.Inf(1)
	mult := q.PowerMult
	if mult == 0 {
		mult = 1
	}
	// The scan is exhaustive over the level grid, but exact lower bounds
	// prune combinations that cannot beat the best found so far: dynamic
	// power is closed-form and grows with Vdd (levels ascend, so once it
	// alone exceeds the best, every remaining level loses), and static
	// power at the heat-sink temperature lower-bounds static power at the
	// subsystem's steady temperature.
	for _, vdd := range c.Config.VddLevels(nominalVdd) {
		pdyn := mult * c.Power.Pdyn(i, q.AlphaF, vdd, fCore)
		if pdyn >= bestPower {
			break
		}
		for _, vbb := range c.Config.VbbLevels() {
			pstaMin := mult * c.Power.Psta(i,
				vtAtSink(c, i, q.THK, vdd, vbb), vdd, q.THK)
			if pdyn+pstaMin >= bestPower {
				continue
			}
			ref := c.peRefFor(i, q.Variant, vdd, vbb)
			// Devices can be no cooler than the heat sink, and fPE falls
			// with temperature — so infeasibility at the sink temperature
			// is infeasibility, without a thermal solve.
			if c.peFMaxQ(&ref, bq, thq) < fCore-1e-9 {
				continue
			}
			st := c.Thermal.SubsystemSteady(c.subsystemInput(i, q, vdd, vbb, fCore), q.THK)
			fPE := c.peFMaxQ(&ref, bq, tempQueryFor(math.Min(st.TK, c.Limits.TMaxK)))
			feasible := fPE >= fCore-1e-9 && st.Converged && st.TK <= c.Limits.TMaxK+1e-9
			if feasible && st.PowerW() < bestPower {
				bestPower = st.PowerW()
				best = PowerResult{VddV: vdd, VbbV: vbb, State: st, Feasible: true}
			}
		}
	}
	if best.Feasible {
		return best
	}
	// No level pair meets fCore: fall back to the fastest pair (retuning
	// will pull the core frequency down). Computed only on this cold path,
	// since it costs a full frequency solve per pair. Only the argmax
	// needs a thermal state — interim leaders' states are never read — so
	// the steady solve runs once for the winner; the selection comparisons
	// are unchanged, so the winner and its cold-start state are identical
	// to solving per leader.
	var fastest PowerResult
	fastestF := -1.0
	for _, vdd := range c.Config.VddLevels(nominalVdd) {
		for _, vbb := range c.Config.VbbLevels() {
			if f := c.comboFMax(i, q, vdd, vbb, bq); f > fastestF {
				fastestF = f
				fastest = PowerResult{VddV: vdd, VbbV: vbb, Feasible: false}
			}
		}
	}
	if fastestF >= 0 {
		fastest.State = c.Thermal.SubsystemSteady(
			c.subsystemInput(i, q, fastest.VddV, fastest.VbbV, fCore), q.THK)
	}
	return fastest
}

// vtAtSink returns the subsystem's operating Vt if its devices sat exactly
// at the heat-sink temperature — the coolest (least leaky) it can be.
func vtAtSink(c *Core, i int, thK, vdd, vbb float64) float64 {
	return c.Subs[i].Stage.VariusParams().VtAt(c.Subs[i].Vt0EffV, thK, vdd, vbb)
}

// rhoFor converts a measured per-cycle activity factor into accesses per
// instruction, the weight of Eq. 4.
func rhoFor(alphaF, cpi float64) float64 {
	if cpi <= 0 {
		return alphaF
	}
	return alphaF * cpi
}

// classFor reports whether subsystem id is active for the application
// class: FP-only structures idle (clock-gated) under integer codes and
// vice versa, which is why the paper adapts "integer or FP units depending
// on the type of application running".
func classActive(sub floorplan.Subsystem, class workload.Class) bool {
	if class == workload.FP {
		return sub.FPSide
	}
	return sub.IntSide
}
