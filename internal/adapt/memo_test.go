package adapt

import (
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/tech"
	"repro/internal/vats"
)

// evalPoints builds a small grid of operating points spanning clean and
// violated regions, with repeats so the memo has something to hit.
func evalPoints(n int) []OperatingPoint {
	mk := func(f, vdd, vbb float64) OperatingPoint {
		op := OperatingPoint{FCore: f, VddV: make([]float64, n), VbbV: make([]float64, n)}
		for i := range op.VddV {
			op.VddV[i] = vdd
			op.VbbV[i] = vbb
		}
		return op
	}
	return []OperatingPoint{
		mk(tech.FRelMin, 1.0, 0),
		mk(1.0, 1.05, 0),
		mk(1.1, tech.VddMaxV, 0),
		mk(tech.FRelMin, 1.0, 0), // repeat of point 0: a memo hit
		mk(1.0, 1.05, 0),         // repeat of point 1
	}
}

// sameState compares SystemStates bitwise (CoreState holds a slice, so ==
// does not apply).
func sameState(a, b SystemState) bool {
	if a.PE != b.PE || a.PerfRel != b.PerfRel || a.TotalW != b.TotalW ||
		a.ErrViol != b.ErrViol || a.TempViol != b.TempViol || a.PowerViol != b.PowerViol {
		return false
	}
	if a.Core.THK != b.Core.THK || a.Core.UncoreW != b.Core.UncoreW ||
		a.Core.TotalW != b.Core.TotalW || len(a.Core.Subs) != len(b.Core.Subs) {
		return false
	}
	for i := range a.Core.Subs {
		if a.Core.Subs[i] != b.Core.Subs[i] {
			return false
		}
	}
	return true
}

// TestEvaluateMemoHitsAndIdentity: repeated Evaluate calls at the same
// operating point must be served from the core's memo (visible in the
// core.memo.* counters) and return byte-identical states.
func TestEvaluateMemoHitsAndIdentity(t *testing.T) {
	gcc, _ := profiles(t)
	core := buildCore(t, 31, preferred)
	reg := obs.NewRegistry()
	core.Obs = reg
	pts := evalPoints(core.N())
	first := make([]SystemState, len(pts))
	for i, op := range pts {
		st, err := core.Evaluate(op, gcc)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = st
	}
	if hits := reg.Counter("core.memo.evaluate_hits").Value(); hits < 2 {
		t.Errorf("evaluate memo hits = %d, want >= 2 (grid repeats)", hits)
	}
	for i, op := range pts {
		st, err := core.Evaluate(op, gcc)
		if err != nil {
			t.Fatal(err)
		}
		if !sameState(st, first[i]) {
			t.Errorf("point %d: memoized state %+v != first evaluation %+v", i, st, first[i])
		}
	}
	if misses := reg.Counter("core.memo.evaluate_misses").Value(); misses != 3 {
		t.Errorf("evaluate memo misses = %d, want 3 distinct points", misses)
	}
}

// TestEvaluateMemoDisabledByPruningKnob: the reference mode must bypass
// the memo entirely, like every other fast path behind DisablePruning.
func TestEvaluateMemoDisabledByPruningKnob(t *testing.T) {
	gcc, _ := profiles(t)
	core := buildCore(t, 31, preferred)
	core.DisablePruning = true
	reg := obs.NewRegistry()
	core.Obs = reg
	op := evalPoints(core.N())[0]
	for i := 0; i < 3; i++ {
		if _, err := core.Evaluate(op, gcc); err != nil {
			t.Fatal(err)
		}
	}
	if hits := reg.Counter("core.memo.evaluate_hits").Value(); hits != 0 {
		t.Errorf("reference mode took %d memo hits, want 0", hits)
	}
}

// TestConcurrentWorkerViewEvaluate drives per-worker views from racing
// goroutines (the -race concurrent-memo test): each view owns its solver
// scratch and Evaluate memo, so concurrent phase evaluations must be both
// race-free and bitwise equal to a serial core's answers.
func TestConcurrentWorkerViewEvaluate(t *testing.T) {
	gcc, swim := profiles(t)
	profs := []pipeline.Profile{gcc, swim}
	parent := buildCore(t, 32, preferred)
	serial := buildCore(t, 32, preferred)
	pts := evalPoints(parent.N())
	// Evaluate on the parent first: its stage-curve scratch then owns
	// backing arrays, which the views must not inherit and share.
	if _, err := parent.Evaluate(pts[0], gcc); err != nil {
		t.Fatal(err)
	}
	want := make(map[[2]int]SystemState)
	for pi, op := range pts {
		for fi, prof := range profs {
			st, err := serial.Evaluate(op, prof)
			if err != nil {
				t.Fatal(err)
			}
			want[[2]int{pi, fi}] = st
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := parent.WorkerView()
			// Two passes: the second is served from the view's own memo
			// and must not change answers.
			for pass := 0; pass < 2; pass++ {
				for pi, op := range pts {
					for fi, prof := range profs {
						st, err := view.Evaluate(op, prof)
						if err != nil {
							errs <- err.Error()
							return
						}
						if !sameState(st, want[[2]int{pi, fi}]) {
							errs <- "concurrent view Evaluate diverged from serial core"
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// sameRetune compares RetuneResults bitwise.
func sameRetune(a, b RetuneResult) bool {
	pa, pb := a.Point, b.Point
	if pa.FCore != pb.FCore || pa.Queue != pb.Queue || pa.FU != pb.FU ||
		len(pa.VddV) != len(pb.VddV) || len(pa.VbbV) != len(pb.VbbV) {
		return false
	}
	for i := range pa.VddV {
		if pa.VddV[i] != pb.VddV[i] || pa.VbbV[i] != pb.VbbV[i] {
			return false
		}
	}
	return a.Outcome == b.Outcome && a.Steps == b.Steps && sameState(a.State, b.State)
}

// steadyProfiles returns three distinct phase profiles: gcc, swim, and a
// gcc variant with twice the L2 miss rate.
func steadyProfiles(t *testing.T) (u1, u2, u3 pipeline.Profile) {
	gcc, swim := profiles(t)
	u3 = gcc
	u3.Mr *= 2
	return gcc, swim, u3
}

// TestSteadyMemoMatchesRecompute: on a core whose Evaluate memo is
// complete, AdaptSteady over the recurring phases u1, u2, u1, u3, u1
// returns, position by position, exactly what a twin core running u1,
// u2, u3 once each returns. A repeat hits the memo at every probe, so it
// reproduces its first solve and leaves the thermal warm start where the
// next new phase expects it. This is the property that lets the fleet
// answer a recurring unit from its first result.
func TestSteadyMemoMatchesRecompute(t *testing.T) {
	u1, u2, u3 := steadyProfiles(t)
	profs := []pipeline.Profile{u1, u2, u3}
	parent := buildCore(t, 34, preferred)
	core, twin := parent.WorkerView(), parent.WorkerView()
	want := make([]RetuneResult, len(profs))
	for i, prof := range profs {
		res, err := twin.AdaptSteady(prof, Exhaustive{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	for pos, i := range []int{0, 1, 0, 2, 0} {
		got, err := core.AdaptSteady(profs[i], Exhaustive{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRetune(got, want[i]) {
			t.Errorf("position %d (u%d): solve %+v != twin's %+v", pos, i+1, got, want[i])
		}
	}
	if !core.MemoComplete() {
		t.Fatal("core's Evaluate memo is not complete; the test proves nothing")
	}
}

// TestMemoCompleteAtCap: MemoComplete holds on a fresh core and after
// solves below the cap. It reads false once the Evaluate memo holds
// evalMemoCap entries, because the memo then refuses every new state and
// a repeat of a refused probe would re-solve from another thermal warm
// start, and under DisablePruning, which bypasses the memo.
func TestMemoCompleteAtCap(t *testing.T) {
	u1, u2, _ := steadyProfiles(t)
	core := buildCore(t, 35, preferred)
	if !core.MemoComplete() {
		t.Fatal("fresh core: memo not complete")
	}
	if _, err := core.AdaptSteady(u1, Exhaustive{}); err != nil {
		t.Fatal(err)
	}
	if !core.MemoComplete() {
		t.Fatal("memo not complete after one solve")
	}
	for i := 0; len(core.evalMemo) < evalMemoCap-1; i++ {
		core.evalMemo["placeholder "+strconv.Itoa(i)] = SystemState{}
	}
	if !core.MemoComplete() {
		t.Fatal("memo one entry below its cap reads incomplete")
	}
	// u2 was never evaluated: its first probe fills the last slot, and
	// the memo refuses the rest.
	if _, err := core.AdaptSteady(u2, Exhaustive{}); err != nil {
		t.Fatal(err)
	}
	if n := len(core.evalMemo); n != evalMemoCap {
		t.Fatalf("memo holds %d entries, want its cap %d", n, evalMemoCap)
	}
	if core.MemoComplete() {
		t.Fatal("memo at its cap reads complete")
	}

	ref := buildCore(t, 35, preferred)
	ref.DisablePruning = true
	if ref.MemoComplete() {
		t.Fatal("DisablePruning core reads complete")
	}
}

// TestConcurrentWorkerViewSteady drives per-worker views, each with its
// own Evaluate memo, from racing goroutines over a parent that has
// already solved: every view starts with an empty memo and answers its
// recurring phases exactly as a fresh serial core does.
func TestConcurrentWorkerViewSteady(t *testing.T) {
	u1, u2, _ := steadyProfiles(t)
	seq := []pipeline.Profile{u1, u2, u1, u2}
	serial := buildCore(t, 37, preferred)
	want := make([]RetuneResult, len(seq))
	for i, prof := range seq {
		res, err := serial.AdaptSteady(prof, Exhaustive{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	parent := buildCore(t, 37, preferred)
	if _, err := parent.AdaptSteady(u1, Exhaustive{}); err != nil {
		t.Fatal(err)
	}
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			view := parent.WorkerView()
			for i, prof := range seq {
				res, err := view.AdaptSteady(prof, Exhaustive{})
				if err != nil {
					errs <- err.Error()
					return
				}
				if !sameRetune(res, want[i]) {
					errs <- "concurrent view AdaptSteady diverged from serial core"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPETableExportImportRoundtrip: tables built by one core, registered
// as a fresh core's deferred source over the same chip, import whole on
// its first miss and yield bitwise-identical solves without rebuilding
// (the persistence path cache.go rides on). The source runs once however
// many queries follow.
func TestPETableExportImportRoundtrip(t *testing.T) {
	builder := buildCore(t, 33, allConfig)
	q := FreqQuery{THK: thTest, AlphaF: 0.4, Rho: 0.9, Variant: vats.IdentityVariant(), PowerMult: 1}
	want := make([]FreqResult, builder.N())
	for i := range want {
		want[i] = builder.FreqSolve(i, q)
	}
	tabs := builder.ExportPETables()
	if len(tabs) == 0 {
		t.Fatal("no PE tables exported after a full solve sweep")
	}

	fresh := buildCore(t, 33, allConfig)
	reg := obs.NewRegistry()
	fresh.Obs = reg
	calls := 0
	fresh.DeferPETables(func() []PETableSlot { calls++; return tabs })
	for i := range want {
		if got := fresh.FreqSolve(i, q); got != want[i] {
			t.Fatalf("sub %d: imported-table solve %+v != builder's %+v", i, got, want[i])
		}
	}
	if calls != 1 {
		t.Fatalf("deferred source ran %d times, want 1", calls)
	}
	if n, cols := reg.Counter("adapt.pe.imported_columns").Value(), exportedColumns(builder); n != int64(cols) {
		t.Fatalf("imported %d of %d table columns into a cold core", n, cols)
	}
	// The warmed core built nothing and exports what it imported, so
	// cache.go's "skip write when nothing new" guard holds.
	if n := fresh.BuiltPEColumns(); n != 0 {
		t.Fatalf("rebuilt %d columns the import held", n)
	}
	if again := fresh.ExportPETables(); len(again) < len(tabs) {
		t.Fatalf("re-export lost tables: %d < %d", len(again), len(tabs))
	}
}

// TestPEColumnsMatchExport: the store's built-column count, which
// ReleaseChip reads instead of exporting, always equals the set Mask bits
// ExportPETables returns beyond the deferred import — after lazy builds,
// after concurrent builders on views sharing the store, and after builds
// over an import.
func TestPEColumnsMatchExport(t *testing.T) {
	check := func(label string, c *Core, imported int) {
		t.Helper()
		if got, want := c.BuiltPEColumns(), exportedColumns(c)-imported; got != want {
			t.Fatalf("%s: BuiltPEColumns = %d, export holds %d columns beyond %d imported", label, got, want, imported)
		}
	}
	queries := []FreqQuery{
		{THK: thTest, AlphaF: 0.4, Rho: 0.9, Variant: vats.IdentityVariant(), PowerMult: 1},
		{THK: 66 + 273.15, AlphaF: 0.12, Rho: 0.5, Variant: tech.FULowSlope.Variant(), PowerMult: tech.LowSlopePowerMult},
	}
	parent := buildCore(t, 41, allConfig)
	check("fresh", parent, 0)
	parent.FreqSolve(0, queries[0])
	check("lazy build", parent, 0)
	if parent.BuiltPEColumns() == 0 {
		t.Fatal("a solve built no columns")
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			view := parent.WorkerView()
			for i := 1 + w%2; i < 5; i += 2 {
				view.FreqSolve(i, queries[w%len(queries)])
			}
		}(w)
	}
	wg.Wait()
	check("concurrent builders", parent, 0)

	partial := buildCore(t, 41, allConfig)
	partial.FreqSolve(2, queries[1])
	tabs := partial.ExportPETables()
	fresh := buildCore(t, 41, allConfig)
	reg := obs.NewRegistry()
	fresh.Obs = reg
	fresh.DeferPETables(func() []PETableSlot { return tabs })
	fresh.FreqSolve(2, queries[1])
	imported := int(reg.Counter("adapt.pe.imported_columns").Value())
	if imported != exportedColumns(partial) || fresh.BuiltPEColumns() != 0 {
		t.Fatalf("import of %d columns filled %d and built %d", exportedColumns(partial), imported, fresh.BuiltPEColumns())
	}
	check("import", fresh, imported)
	fresh.FreqSolve(0, queries[0])
	check("builds over an import", fresh, imported)
	if fresh.BuiltPEColumns() == 0 {
		t.Fatal("a new solve over the import built no columns")
	}
}

// exportedColumns counts the set Mask bits of c's exported tables.
func exportedColumns(c *Core) int {
	n := 0
	for _, tb := range c.ExportPETables() {
		n += bits.OnesCount8(tb.Mask)
	}
	return n
}

// TestPEStoreIsLazy: a core's table store holds no array until a column
// is built or imported, and its deferred source runs on the first miss
// only: deriving cores, exporting and counting leave it alone.
func TestPEStoreIsLazy(t *testing.T) {
	builder := buildCore(t, 35, allConfig)
	q := FreqQuery{THK: thTest, AlphaF: 0.4, Rho: 0.9, Variant: vats.IdentityVariant(), PowerMult: 1}
	builder.FreqSolve(3, q)
	tabs := builder.ExportPETables()

	c := buildCore(t, 35, allConfig)
	calls := 0
	c.DeferPETables(func() []PETableSlot { calls++; return tabs })
	v, err := c.WithConfig(allConfig)
	if err != nil {
		t.Fatal(err)
	}
	if c.ExportPETables() != nil || c.BuiltPEColumns() != 0 {
		t.Fatal("an untouched store reports tables")
	}
	if calls != 0 || c.pe.tabs.Load() != nil {
		t.Fatalf("untouched store: source called %d times, array allocated %v", calls, c.pe.tabs.Load() != nil)
	}
	if got, want := v.FreqSolve(3, q), builder.FreqSolve(3, q); got != want {
		t.Fatalf("solve over deferred tables %+v != builder's %+v", got, want)
	}
	if calls != 1 || c.pe.tabs.Load() == nil {
		t.Fatalf("after the first miss: source called %d times, array allocated %v", calls, c.pe.tabs.Load() != nil)
	}
	// The deferred tables held every column the repeat solve needs.
	if c.BuiltPEColumns() != 0 || exportedColumns(c) != exportedColumns(builder) {
		t.Fatalf("built %d columns beyond an import of %d (store holds %d)",
			c.BuiltPEColumns(), exportedColumns(builder), exportedColumns(c))
	}
	v.FreqSolve(4, q)
	if calls != 1 || c.BuiltPEColumns() == 0 {
		t.Fatalf("a new subsystem: source called %d times, %d columns built", calls, c.BuiltPEColumns())
	}
}

// TestDeferredImportRunsOnce: cores of one chip on several goroutines hit
// their first miss together; the deferred source runs once, before any
// build, and the export holds exactly the imported columns plus the
// built ones.
func TestDeferredImportRunsOnce(t *testing.T) {
	queries := []FreqQuery{
		{THK: thTest, AlphaF: 0.4, Rho: 0.9, Variant: vats.IdentityVariant(), PowerMult: 1},
		{THK: 66 + 273.15, AlphaF: 0.12, Rho: 0.5, Variant: tech.FULowSlope.Variant(), PowerMult: tech.LowSlopePowerMult},
	}
	builder := buildCore(t, 43, allConfig)
	builder.FreqSolve(0, queries[0])
	builder.FreqSolve(1, queries[1])
	tabs := builder.ExportPETables()

	donor := buildCore(t, 43, allConfig)
	reg := obs.NewRegistry()
	donor.Obs = reg
	var calls atomic.Int32
	donor.DeferPETables(func() []PETableSlot { calls.Add(1); return tabs })
	const workers = 6
	cores := make([]*Core, workers)
	for w := range cores {
		var err error
		if cores[w], err = donor.WithConfig(allConfig); err != nil {
			t.Fatal(err)
		}
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w, c := range cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := w % 3; i < 6; i += 2 {
				c.FreqSolve(i, queries[(w+i)%len(queries)])
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("deferred source ran %d times, want 1", n)
	}
	imported := int(reg.Counter("adapt.pe.imported_columns").Value())
	if imported != exportedColumns(builder) {
		t.Fatalf("imported %d columns, the source held %d", imported, exportedColumns(builder))
	}
	if got, want := exportedColumns(donor), imported+donor.BuiltPEColumns(); got != want {
		t.Fatalf("export holds %d columns, want %d imported + %d built", got, imported, donor.BuiltPEColumns())
	}
}
