package adapt

import (
	"math/bits"
	"strconv"
	"strings"
	"sync"
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

// TestSteadyMemoMatchesRecompute: a view answering the recurring phases of
// u1, u2, u1, u3, u1 from its steady memo returns, position by position,
// exactly what a twin view that recomputes every solve returns.
func TestSteadyMemoMatchesRecompute(t *testing.T) {
	u1, u2, u3 := steadyProfiles(t)
	parent := buildCore(t, 34, preferred)
	view, twin := parent.WorkerView(), parent.WorkerView()
	twin.steadyMemo = nil
	reg := obs.NewRegistry()
	view.Obs = reg
	for pos, prof := range []pipeline.Profile{u1, u2, u1, u3, u1} {
		got, err := view.AdaptSteady(prof, Exhaustive{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.AdaptSteady(prof, Exhaustive{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameRetune(got, want) {
			t.Fatalf("position %d: memoized solve %+v != recomputed %+v", pos, got, want)
		}
	}
	if hits, misses := reg.Counter("adapt.steady.memo_hits").Value(),
		reg.Counter("adapt.steady.memo_misses").Value(); hits != 2 || misses != 3 {
		t.Errorf("steady memo hits/misses = %d/%d, want 2/3", hits, misses)
	}
	// A hit hands out its own operating point: mutating it must not
	// reach the memo.
	first, err := view.AdaptSteady(u1, Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	first.Point.VddV[0] = -1
	again, err := view.AdaptSteady(u1, Exhaustive{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Point.VddV[0] == -1 {
		t.Error("steady memo hit aliases the caller's operating point")
	}
}

// TestSteadyMemoKeysSolver: the memo keys the solver's identity, so the
// same phase under Exhaustive and under two distinct fuzzy solvers is
// three solves. Untrained fuzzy solvers fall back to Exhaustive answers,
// so only the key tells them apart.
func TestSteadyMemoKeysSolver(t *testing.T) {
	u1, _, _ := steadyProfiles(t)
	core := buildCore(t, 34, preferred)
	reg := obs.NewRegistry()
	core.Obs = reg
	fs1, fs2 := &FuzzySolver{}, &FuzzySolver{}
	for _, s := range []Solver{Exhaustive{}, fs1, fs2, fs1, Exhaustive{}} {
		if _, err := core.AdaptSteady(u1, s); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := reg.Counter("adapt.steady.memo_hits").Value(),
		reg.Counter("adapt.steady.memo_misses").Value(); hits != 2 || misses != 3 {
		t.Errorf("steady memo hits/misses = %d/%d, want 2/3", hits, misses)
	}
}

// TestSteadyMemoBypass: solvers the memo cannot key, and the reference
// mode, recompute every solve.
func TestSteadyMemoBypass(t *testing.T) {
	u1, _, _ := steadyProfiles(t)
	type wrapped struct{ Exhaustive }
	for name, tc := range map[string]struct {
		solver    Solver
		reference bool
	}{
		"other solver": {solver: wrapped{}},
		"reference":    {solver: Exhaustive{}, reference: true},
	} {
		core := buildCore(t, 34, preferred)
		core.DisablePruning = tc.reference
		reg := obs.NewRegistry()
		core.Obs = reg
		for i := 0; i < 2; i++ {
			if _, err := core.AdaptSteady(u1, tc.solver); err != nil {
				t.Fatal(err)
			}
		}
		if n := len(core.steadyMemo); n != 0 {
			t.Errorf("%s: steady memo holds %d entries, want 0", name, n)
		}
		if hits := reg.Counter("adapt.steady.memo_hits").Value(); hits != 0 {
			t.Errorf("%s: %d steady memo hits, want 0", name, hits)
		}
	}
}

// TestSteadyMemoSkipsRefusedSolves: a solve during which the Evaluate memo
// refused an insert at its cap is not memoized, because a recompute would
// re-solve those probes from a different thermal warm start. A solve whose
// probes all hit the full memo refused nothing and is memoized.
func TestSteadyMemoSkipsRefusedSolves(t *testing.T) {
	u1, u2, _ := steadyProfiles(t)
	core := buildCore(t, 35, preferred)
	reg := obs.NewRegistry()
	core.Obs = reg
	if _, err := core.AdaptSteady(u1, Exhaustive{}); err != nil {
		t.Fatal(err)
	}
	clear(core.steadyMemo)
	for i := 0; len(core.evalMemo) < evalMemoCap; i++ {
		core.evalMemo["placeholder "+strconv.Itoa(i)] = SystemState{}
	}

	// u2 was never evaluated: its probes miss the full Evaluate memo.
	for i := 0; i < 2; i++ {
		if _, err := core.AdaptSteady(u2, Exhaustive{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(core.steadyMemo); n != 0 {
		t.Fatalf("solve with refused Evaluate inserts was memoized (%d entries)", n)
	}
	if hits := reg.Counter("adapt.steady.memo_hits").Value(); hits != 0 {
		t.Fatalf("%d steady memo hits after refused solves, want 0", hits)
	}

	// u1's probes are all in the Evaluate memo: nothing is refused.
	if _, err := core.AdaptSteady(u1, Exhaustive{}); err != nil {
		t.Fatal(err)
	}
	if n := len(core.steadyMemo); n != 1 {
		t.Fatalf("solve served wholly from the Evaluate memo left %d steady entries, want 1", n)
	}
}

// TestSteadyMemoReplaysCounters: k identical solves book k times one
// solve's retune and outcome counts, k-1 of them from the memo.
func TestSteadyMemoReplaysCounters(t *testing.T) {
	u1, _, _ := steadyProfiles(t)
	const k = 4
	counts := func(calls int) (map[string]int64, *obs.Registry) {
		core := buildCore(t, 36, allConfig)
		reg := obs.NewRegistry()
		core.Obs = reg
		for i := 0; i < calls; i++ {
			if _, err := core.AdaptSteady(u1, Exhaustive{}); err != nil {
				t.Fatal(err)
			}
		}
		out := make(map[string]int64)
		for _, m := range reg.Snapshot() {
			if m.Kind == "counter" && (strings.HasPrefix(m.Name, "adapt.retune.") ||
				strings.HasPrefix(m.Name, "adapt.outcome.")) {
				out[m.Name] = m.Count
			}
		}
		return out, reg
	}
	one, _ := counts(1)
	many, reg := counts(k)
	if one["adapt.retune.invocations"] == 0 {
		t.Fatal("one solve recorded no retune invocations")
	}
	if len(many) != len(one) {
		t.Errorf("%d solves registered counters %v, one solve %v", k, many, one)
	}
	for name, v := range one {
		if many[name] != k*v {
			t.Errorf("%s = %d after %d solves, want %d x %d", name, many[name], k, k, v)
		}
	}
	if hits := reg.Counter("adapt.steady.memo_hits").Value(); hits != k-1 {
		t.Errorf("adapt.steady.memo_hits = %d, want %d", hits, k-1)
	}
}

// TestConcurrentWorkerViewSteady drives per-worker views, each with its
// own steady memo, from racing goroutines over a parent that has already
// solved: every view starts with an empty memo and answers its recurring
// phases exactly as a fresh serial core does.
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
	reg := obs.NewRegistry()
	parent.Obs = reg
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
	if hits, misses := reg.Counter("adapt.steady.memo_hits").Value(),
		reg.Counter("adapt.steady.memo_misses").Value(); hits != 2*workers || misses != 2*workers {
		t.Errorf("steady memo hits/misses = %d/%d, want %d/%d", hits, misses, 2*workers, 2*workers)
	}
}

// TestPETableExportImportRoundtrip: tables built by one core must import
// into a fresh core over the same chip and yield bitwise-identical solves
// without rebuilding (the persistence path cache.go rides on).
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

	cols := 0
	for _, tb := range tabs {
		cols += bits.OnesCount8(tb.Mask)
	}
	fresh := buildCore(t, 33, allConfig)
	if n := fresh.ImportPETables(tabs); n != cols {
		t.Fatalf("imported %d of %d table columns into a cold core", n, cols)
	}
	// Re-import must be a no-op: every exported column is already built.
	if n := fresh.ImportPETables(tabs); n != 0 {
		t.Fatalf("second import filled %d columns, want 0", n)
	}
	for i := range want {
		if got := fresh.FreqSolve(i, q); got != want[i] {
			t.Fatalf("sub %d: imported-table solve %+v != builder's %+v", i, got, want[i])
		}
	}
	// The warmed core exports what it imported (nothing new was built for
	// this query), so cache.go's "skip write when nothing new" guard holds.
	if again := fresh.ExportPETables(); len(again) < len(tabs) {
		t.Fatalf("re-export lost tables: %d < %d", len(again), len(tabs))
	}
}
