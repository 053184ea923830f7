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
// A Core carries unsynchronized memo maps, so an individual Core must
// only be driven by one goroutine at a time. It owns two, at two
// granularities: the Evaluate memo (full SystemStates by exact
// operating-point + profile key) and the AdaptSteady memo (whole
// steady-state solves by exact profile + solver key). The PE-fmax table
// store underneath is different: its lazy builds publish through
// sync.Once-style atomic flags, so one store may back any number of
// cores on any number of goroutines concurrently — tables are built at
// most once and every reader observes a fully-built table. Two sharing
// patterns follow:
//
//   - SharePETables joins cores modeling the same chip (e.g. the six
//     environment cores of one chip) into one store; the cores may then be
//     driven from different worker goroutines, as the (chip × environment)
//     work queue of the experiment harness does.
//   - WorkerView clones a core into a per-goroutine view with empty memo
//     maps over the shared read-only models and table store; the parallel
//     fuzzy-training pipeline hands one view per worker slot, and the
//     fleet service one per (chip, environment, worker).
//
// Besides the memo maps, a Core privately owns a warm-started
// thermal.Solver (its scratch buffers carry the previous converged state
// between Evaluate calls) and the key, thermal-input, and stage-curve
// scratch Evaluate reuses. Cached SystemStates alias one shared Subs
// slice per entry. All of it is single-goroutine state, and WorkerView
// replaces every piece with a fresh instance so views never share
// mutable scratch.
package adapt

import (
	"fmt"
	"math"
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

	// DisablePruning switches FreqSolve to the reference slow path (no
	// bound-based pruning) and bypasses the Evaluate and AdaptSteady
	// memos. Results are identical either way (the equivalence tests
	// assert it); the knob exists so the fast path can always be checked
	// against the scan.
	DisablePruning bool

	pe *peStore

	// solver is the core's private warm-started thermal solver: Evaluate
	// drives every CoreSteady through it so successive retune probes reuse
	// the previous converged state. Owned by the core's goroutine, like the
	// memo maps; WorkerView hands out a fresh one.
	solver *thermal.Solver
	// evalMemo caches full Evaluate results by exact operating-point +
	// profile key; evalKey is the reused scratch buffer the key is encoded
	// into, and evalIns the reused thermal-input scratch. Cached
	// SystemStates share their Core.Subs slice across hits and must be
	// treated as read-only (they are: callers only read).
	evalMemo map[string]SystemState
	evalKey  []byte
	evalIns  []thermal.SubsystemInput
	// evalRefused counts Evaluate results the memo declined to store
	// because it was at its cap; AdaptSteady memoizes a solve only if
	// this did not move while the solve ran.
	evalRefused int
	// evalCurve is the reused stage-curve scratch for evaluate's real
	// error-rate pass — one Curve per Core instead of one per
	// (subsystem, evaluation).
	evalCurve vats.Curve
	// steadyMemo caches whole AdaptSteady solves by exact profile +
	// solver key (see AdaptSteady); nil bypasses it.
	steadyMemo map[steadyKey]steadyEntry
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
		Subs:       subs,
		Power:      pw,
		Thermal:    th,
		Checker:    chk,
		Config:     cfg,
		Limits:     lim,
		pe:         newPEStore(len(subs)),
		solver:     thermal.NewSolver(th),
		evalMemo:   make(map[string]SystemState),
		steadyMemo: make(map[steadyKey]steadyEntry),
	}, nil
}

// N returns the number of subsystems.
func (c *Core) N() int { return len(c.Subs) }

// SharePETables makes c reuse donor's PE-fmax tables. The tables depend
// only on the stage models — not on the technique configuration — so the
// cores built for one chip's six environments can share one store and
// amortize the vats.Curve evaluations. The donor must model the same chip
// (same stage models, in order). The store is safe for concurrent use, so
// the sharing cores may run on different goroutines; each individual core
// still belongs to one goroutine (see the package comment).
func (c *Core) SharePETables(donor *Core) error {
	if donor == nil || donor.pe == nil {
		return fmt.Errorf("adapt: nil donor")
	}
	if len(c.Subs) != len(donor.Subs) {
		return fmt.Errorf("adapt: subsystem count mismatch: %d vs %d", len(c.Subs), len(donor.Subs))
	}
	for i := range c.Subs {
		if c.Subs[i].Stage != donor.Subs[i].Stage {
			return fmt.Errorf("adapt: subsystem %d has a different stage model", i)
		}
	}
	c.pe = donor.pe
	return nil
}

// PETableSlot is one built dense PE-fmax table in serializable form: the
// flat store slot it occupies, the bitmask of built budget columns, and
// the inverse-table values. The slot index encodes (subsystem, variant,
// vddIdx, vbbIdx, tempIdx) exactly as the dense store lays them out, so a
// chip's tables round-trip through JSON without re-deriving grid
// coordinates; float64 values survive encoding bit-for-bit
// (encoding/json emits shortest-round-trip literals). Columns whose Mask
// bit is clear were never built and carry no meaning.
type PETableSlot struct {
	Slot int                     `json:"slot"`
	Mask uint8                   `json:"mask"`
	FMax [len(peBudgets)]float64 `json:"fmax"`
}

// ExportPETables snapshots every dense PE-fmax table with at least one
// built budget column. Safe to call concurrently with readers and
// builders: the store mutex is held across the snapshot so no
// half-written column is observed. The overflow map (off-grid figure
// sweeps) is deliberately excluded — it is not on the experiment warm
// path.
func (c *Core) ExportPETables() []PETableSlot {
	var out []PETableSlot
	c.pe.mu.Lock()
	for slot := range c.pe.dense {
		if m := c.pe.built[slot].Load(); m != 0 {
			out = append(out, PETableSlot{Slot: slot, Mask: uint8(m), FMax: c.pe.dense[slot].fmax})
		}
	}
	c.pe.mu.Unlock()
	return out
}

// ImportPETables seeds the dense store with previously exported tables,
// skipping out-of-range slots (a floorplan or grid change between runs)
// and columns already built. Imported columns publish through the same
// atomic masks as lazily built ones, so concurrent readers are safe.
// Returns the number of (slot, column) entries newly filled.
func (c *Core) ImportPETables(tabs []PETableSlot) int {
	n := 0
	c.pe.mu.Lock()
	for _, t := range tabs {
		if t.Slot < 0 || t.Slot >= len(c.pe.dense) {
			continue
		}
		cur := c.pe.built[t.Slot].Load()
		add := uint32(t.Mask) &^ cur
		if add == 0 {
			continue
		}
		for bi := range peBudgets {
			if add>>bi&1 == 1 {
				c.pe.dense[t.Slot].fmax[bi] = t.FMax[bi]
				n++
			}
		}
		c.pe.built[t.Slot].Store(cur | add)
	}
	c.pe.mu.Unlock()
	return n
}

// WorkerView returns a core that shares this core's immutable models
// (stages, power, thermal, checker, limits) and its concurrency-safe
// PE-table store, but owns empty memo maps and fresh scratch. Views are
// how a worker pool divides one chip's solve work: each goroutine drives
// its own view, warm tables are shared, and the unsynchronized memo maps
// and scratch buffers are never contended. Solve results are bitwise
// identical to the parent's.
func (c *Core) WorkerView() *Core {
	v := *c
	v.solver = thermal.NewSolver(c.Thermal)
	v.evalMemo = make(map[string]SystemState)
	v.evalKey = nil
	v.evalIns = nil
	v.evalCurve = vats.Curve{}
	v.steadyMemo = make(map[steadyKey]steadyEntry)
	return &v
}

// peKey identifies a cached PE-fmax table on the overflow (slow) path:
// the PE-limited fmax at a given device temperature depends only on the
// subsystem, the structural variant, the (Vdd, Vbb) point, and the
// temperature — not on TH or activity — so tables are computed once per
// chip and reused across every controller invocation.
type peKey struct {
	sub                int
	variant            vats.Variant
	vddMilli, vbbMilli int
	tIdx               int
}

// The structural variants the techniques of §3.3 can request. Only three
// exist in the system — identity, the 3/4-queue Shift, and the LowSlope
// Tilt — so the dense PE store enumerates them; anything else (figure
// generators sweep synthetic variants) goes to the overflow map.
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

// peStore holds one chip's PE-fmax tables: a flat preallocated array
// indexed by (subsystem, variant, vddIdx, vbbIdx, tempIdx) for queries on
// the discrete actuation grids — no hashing, no pointer chasing — plus an
// overflow map for off-grid levels and exotic variants. Tables build on
// first touch.
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
// erfc-dominated bisection work. The overflow map is guarded by the same
// mutex end to end, and scratch is the mutex-guarded curve arena every
// dense build reuses.
type peStore struct {
	nSubs    int
	dense    []peTable
	built    []atomic.Uint32
	mu       sync.Mutex
	overflow map[peKey]*peTable
	scratch  vats.Curve
}

func newPEStore(nSubs int) *peStore {
	n := nSubs * peNumVariants * tech.NumVddLevels * tech.NumVbbLevels * len(peTempsC)
	return &peStore{
		nSubs:    nSubs,
		dense:    make([]peTable, n),
		built:    make([]atomic.Uint32, n),
		overflow: make(map[peKey]*peTable),
	}
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

// peAllCols is the column mask of a fully built table.
const peAllCols = uint32(1)<<len(peBudgets) - 1

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
// yield a non-dense ref that routes to the overflow map.
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
// store by index arithmetic alone; everything else falls back to the
// overflow map, which always builds all columns (it is the rare
// figure-sweep path and the reference the equivalence tests compare
// against).
func (c *Core) tableRef(ref *peRef, tIdx int, need uint32) *peTable {
	if !ref.dense {
		return c.overflowTable(ref, tIdx)
	}
	slot := ref.slot(tIdx)
	if c.pe.built[slot].Load()&need != need {
		c.pe.mu.Lock()
		c.buildColsLocked(slot, ref, tIdx, need)
		c.pe.mu.Unlock()
	}
	return &c.pe.dense[slot]
}

// buildColsLocked fills slot's missing columns from need. Caller holds
// c.pe.mu.
func (c *Core) buildColsLocked(slot int, ref *peRef, tIdx int, need uint32) {
	cur := c.pe.built[slot].Load()
	miss := need &^ cur
	if miss == 0 {
		return
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
	tab := &c.pe.dense[slot]
	for j := 0; j < k; j++ {
		tab.fmax[cols[j]] = res[j]
	}
	c.pe.built[slot].Store(cur | miss)
}

// overflowTable returns (building if needed) the overflow-map table for
// an off-grid or exotic-variant coordinate.
func (c *Core) overflowTable(ref *peRef, tIdx int) *peTable {
	key := peKey{
		sub:      ref.sub,
		variant:  ref.v,
		vddMilli: int(math.Round(ref.vddV * 1000)),
		vbbMilli: int(math.Round(ref.vbbV * 1000)),
		tIdx:     tIdx,
	}
	c.pe.mu.Lock()
	tab, ok := c.pe.overflow[key]
	if !ok {
		tab = &peTable{}
		c.buildTable(tab, ref.sub, ref.v, ref.vddV, ref.vbbV, tIdx)
		c.pe.overflow[key] = tab
	}
	c.pe.mu.Unlock()
	return tab
}

// buildTable fills one inverse table from the stage's error curve, one
// independent FMaxForPE bisection per budget column — the reference
// builder the batched dense path is tested against (and the overflow
// path's builder).
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

// comboFMax finds the highest frequency subsystem i supports at a fixed
// (Vdd, Vbb): the paper's per-combination step of the Freq algorithm, which
// "computes, for each f, Vdd, and Vbb value combination, the resulting
// subsystem T and PE". The thermal cap is closed-form; the error cap is the
// fixed point of f = fPE(T_steady(f)), found by damped iteration (fPE
// decreases in T, T increases in f).
func (c *Core) comboFMax(i int, q FreqQuery, vdd, vbb, budget float64) float64 {
	ref := c.peRefFor(i, q.Variant, vdd, vbb)
	return c.comboFMaxRef(i, q, &ref, budgetQueryFor(budget))
}

// comboFMaxRef is comboFMax over a pre-resolved (Vdd, Vbb) ref and budget
// bracket, for the scan loops that resolve them once per combo/scan.
func (c *Core) comboFMaxRef(i int, q FreqQuery, ref *peRef, bq budgetQuery) float64 {
	in := thermal.SubsystemInput{
		Index:     i,
		Vt0Eff:    c.Subs[i].Vt0EffV,
		AlphaF:    q.AlphaF,
		VddV:      ref.vddV,
		VbbV:      ref.vbbV,
		PowerMult: q.PowerMult,
	}
	fT := c.Thermal.FRelMaxForTemp(in, q.THK, c.Limits.TMaxK)
	if fT <= tech.FRelMin {
		return 0
	}
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
func (c *Core) FreqSolveAt(i int, q FreqQuery, vdds, vbbs []float64) FreqResult {
	budget := c.stageBudget(q.Rho)
	bq := budgetQueryFor(budget)
	// Devices can be no cooler than the heat sink, and the PE-limited
	// fmax falls with temperature, so fPE at the sink temperature (capped
	// at TMAX, matching comboFMax's clamp) upper-bounds every damped
	// iterate of comboFMax. A combo whose bound cannot beat the incumbent
	// after the snap cannot win the scan and is skipped outright.
	sinkT := math.Min(q.THK, c.Limits.TMaxK)
	stq := tempQueryFor(sinkT)
	if !c.DisablePruning {
		// The bound loop is about to touch the sink-temperature tables of
		// every on-grid combo: build their needed budget columns for the
		// whole (vdds × vbbs) slab in one sweep under one lock, sharing
		// the curve scratch, instead of paying a lock round-trip and a
		// cold build per combo. Values are identical to lazy builds — the
		// sweep just front-loads them.
		c.buildSlab(i, q.Variant, vdds, vbbs, stq, bq.need)
	}
	pruned := 0
	var best FreqResult
	for _, vdd := range vdds {
		for _, vbb := range vbbs {
			ref := c.peRefFor(i, q.Variant, vdd, vbb)
			if best.FMax > 0 && !c.DisablePruning {
				bound := c.peFMaxQ(&ref, bq, stq)
				if tech.SnapFRelDown(math.Min(bound, tech.FRelMax)) <= best.FMax+1e-12 {
					pruned++
					continue
				}
			}
			f := c.comboFMaxRef(i, q, &ref, bq)
			f = tech.SnapFRelDown(math.Min(f, tech.FRelMax))
			if f > best.FMax+1e-12 {
				best = FreqResult{FMax: f, VddV: vdd, VbbV: vbb}
			}
		}
	}
	if pruned > 0 {
		c.Obs.Counter("adapt.freq.pruned_combos").Add(int64(pruned))
	}
	return best
}

// buildSlab builds the needed budget columns of the temperature-bracket
// tables for every on-grid (vdd, vbb) combination in one pass: one lock
// acquisition, one shared curve scratch, one joint bisection per table.
// This is the grid-wide batched kernel behind FreqSolveAt — per-cell lazy
// builds would re-derive the same setup (level indices, curve arena,
// bracket probes) hundreds of times per scan. Off-grid levels are left to
// the overflow path.
func (c *Core) buildSlab(sub int, v vats.Variant, vdds, vbbs []float64, tq tempQuery, need uint32) {
	vi, ok := variantIndex(v)
	if !ok {
		return
	}
	c.pe.mu.Lock()
	for tIdx := tq.lo; ; tIdx = tq.hi {
		for _, vdd := range vdds {
			di, ok := tech.VddIndex(vdd)
			if !ok {
				continue
			}
			for _, vbb := range vbbs {
				bi, ok := tech.VbbIndex(vbb)
				if !ok {
					continue
				}
				ref := peRef{sub: sub, vi: vi, di: di, bi: bi, dense: true,
					v: v, vddV: vdd, vbbV: vbb}
				c.buildColsLocked(ref.slot(tIdx), &ref, tIdx, need)
			}
		}
		if tIdx == tq.hi {
			break
		}
	}
	c.pe.mu.Unlock()
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
	budget := c.stageBudget(q.Rho)
	bq := budgetQueryFor(budget)
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
			in := thermal.SubsystemInput{
				Index:     i,
				Vt0Eff:    c.Subs[i].Vt0EffV,
				AlphaF:    q.AlphaF,
				VddV:      vdd,
				VbbV:      vbb,
				FRel:      fCore,
				PowerMult: q.PowerMult,
			}
			st := c.Thermal.SubsystemSteady(in, q.THK)
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
			if f := c.comboFMax(i, q, vdd, vbb, budget); f > fastestF {
				fastestF = f
				fastest = PowerResult{VddV: vdd, VbbV: vbb, Feasible: false}
			}
		}
	}
	if fastestF >= 0 {
		in := thermal.SubsystemInput{
			Index: i, Vt0Eff: c.Subs[i].Vt0EffV, AlphaF: q.AlphaF,
			VddV: fastest.VddV, VbbV: fastest.VbbV, FRel: fCore, PowerMult: q.PowerMult,
		}
		fastest.State = c.Thermal.SubsystemSteady(in, q.THK)
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
