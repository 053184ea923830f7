package thermal

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/tech"
)

// gridInputs builds subsystem inputs for one (vdd, vbb, fRel) grid point.
func gridInputs(fp interface{ N() int }, base []SubsystemInput, vdd, vbb, fRel float64) []SubsystemInput {
	ins := make([]SubsystemInput, len(base))
	for i, in := range base {
		in.VddV = vdd
		in.VbbV = vbb
		in.FRel = fRel
		ins[i] = in
	}
	return ins
}

// TestSolverReferenceMatchesModel pins the refactoring seam: a Solver with
// DisableAcceleration set must reproduce Model.CoreSteady byte for byte
// (Model.CoreSteady itself now delegates to such a solver, and the fast
// paths are judged against it).
func TestSolverReferenceMatchesModel(t *testing.T) {
	m, fp, vp := newModel(t)
	base := nominalInputs(fp, vp, 1.0)
	sv := NewSolver(m)
	sv.DisableAcceleration = true
	for _, fRel := range []float64{0.8, 1.0, 1.2} {
		ins := gridInputs(fp, base, vp.VddNomV, 0, fRel)
		want, werr := m.CoreSteady(ins, fRel)
		got, gerr := sv.CoreSteady(ins, fRel)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("fRel %g: error mismatch: model %v solver %v", fRel, werr, gerr)
		}
		if got.THK != want.THK || got.UncoreW != want.UncoreW || got.TotalW != want.TotalW || len(got.Subs) != len(want.Subs) {
			t.Fatalf("fRel %g: header mismatch: got %+v want %+v", fRel, got, want)
		}
		for i := range got.Subs {
			if got.Subs[i] != want.Subs[i] {
				t.Fatalf("fRel %g sub %d: %+v != %+v", fRel, i, got.Subs[i], want.Subs[i])
			}
		}
	}
}

// TestSolverAcceleratedWithinTolK sweeps the full Vdd x Vbb actuation grid
// and checks that the accelerated, warm-started solver lands within the
// fixed-point tolerance contract of the undamped reference: both satisfy
// |T_next - T| < TolK at their answer, so they may differ by a few TolK —
// the bound here is 10*TolK, calibrated with margin above what the sweep
// observes. Convergence classification must agree exactly.
func TestSolverAcceleratedWithinTolK(t *testing.T) {
	m, fp, vp := newModel(t)
	base := nominalInputs(fp, vp, 1.0)
	cfg := tech.Config{TimingSpec: true, ASV: true, ABB: true}
	tolK := DefaultParams().TolK
	bound := 10 * tolK

	fast := NewSolver(m) // warm-started across the whole grid walk
	for _, fRel := range []float64{0.9, 1.1} {
		for _, vdd := range cfg.VddLevels(vp.VddNomV) {
			for _, vbb := range cfg.VbbLevels() {
				ins := gridInputs(fp, base, vdd, vbb, fRel)
				ref := NewSolver(m)
				ref.DisableAcceleration = true
				want, werr := ref.CoreSteady(ins, fRel)
				got, gerr := fast.CoreSteady(ins, fRel)
				if werr != nil {
					// MaxIter exhaustion or runaway in the reference; the
					// accelerated solver converging faster here is fine,
					// there is no golden answer to compare against.
					continue
				}
				if gerr != nil {
					t.Fatalf("vdd %.3f vbb %.3f fRel %g: fast solver failed where reference converged: %v", vdd, vbb, fRel, gerr)
				}
				if d := got.THK - want.THK; d > bound || d < -bound {
					t.Errorf("vdd %.3f vbb %.3f fRel %g: TH %.6f vs %.6f (|d|=%.2e)", vdd, vbb, fRel, got.THK, want.THK, d)
				}
				for i := range want.Subs {
					if got.Subs[i].Converged != want.Subs[i].Converged {
						t.Fatalf("vdd %.3f vbb %.3f fRel %g sub %d: converged %v vs %v",
							vdd, vbb, fRel, i, got.Subs[i].Converged, want.Subs[i].Converged)
					}
					if d := got.Subs[i].TK - want.Subs[i].TK; d > bound || d < -bound {
						t.Errorf("vdd %.3f vbb %.3f fRel %g sub %d: T %.6f vs %.6f (|d|=%.2e)",
							vdd, vbb, fRel, i, got.Subs[i].TK, want.Subs[i].TK, d)
					}
				}
			}
		}
	}
}

// TestSolverWarmStartConsistent re-solves the same grid point repeatedly
// on one warm solver: answers must stay put (the warm start changes the
// iteration path, never the destination beyond tolerance), and returned
// states must be snapshots — not views of solver scratch that later calls
// overwrite.
func TestSolverWarmStartConsistent(t *testing.T) {
	m, fp, vp := newModel(t)
	base := nominalInputs(fp, vp, 1.0)
	ins := gridInputs(fp, base, vp.VddNomV, 0, 1.0)
	sv := NewSolver(m)
	first, err := sv.CoreSteady(ins, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := append([]SubsystemState(nil), first.Subs...)
	tolK := DefaultParams().TolK
	for round := 0; round < 3; round++ {
		again, err := sv.CoreSteady(ins, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range snapshot {
			if d := again.Subs[i].TK - snapshot[i].TK; d > 10*tolK || d < -10*tolK {
				t.Fatalf("round %d sub %d: warm re-solve drifted: %.6f vs %.6f", round, i, again.Subs[i].TK, snapshot[i].TK)
			}
		}
	}
	for i := range snapshot {
		if first.Subs[i] != snapshot[i] {
			t.Fatalf("sub %d: earlier result mutated by later solves", i)
		}
	}
}

// TestCoreSteadyWarmAllocs: a warm-started solve allocates at most once,
// for the state it returns, because its scratch and starting
// temperatures are reused. The adaptation engine runs this fixed point
// at every operating point it evaluates. The operating point alternates
// so that each call re-solves, as adjacent phase evaluations do.
func TestCoreSteadyWarmAllocs(t *testing.T) {
	m, fp, vp := newModel(t)
	ins := nominalInputs(fp, vp, 1.0)
	sv := NewSolver(m)
	calls := 0
	allocs := testing.AllocsPerRun(100, func() {
		fRel := 1.0 + 0.02*float64(calls%2)
		calls++
		for i := range ins {
			ins[i].FRel = fRel
		}
		if _, err := sv.CoreSteady(ins, fRel); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("a warm CoreSteady allocates %.0f times, want at most 1", allocs)
	}
}

// TestSolverObsMetrics checks the observability satellite: solves record
// the thermal.iter histogram, and a non-converging solve books the
// thermal.nonconverged counter.
func TestSolverObsMetrics(t *testing.T) {
	m, fp, vp := newModel(t)
	reg := obs.NewRegistry()
	sv := NewSolver(m)
	sv.Obs = reg
	ins := gridInputs(fp, nominalInputs(fp, vp, 1.0), vp.VddNomV, 0, 1.0)
	if _, err := sv.CoreSteady(ins, 1.0); err != nil {
		t.Fatal(err)
	}
	if n := reg.Timer("thermal.iter").Count(); n != 1 {
		t.Fatalf("thermal.iter count = %d, want 1", n)
	}
	if v := reg.Counter("thermal.nonconverged").Value(); v != 0 {
		t.Fatalf("thermal.nonconverged = %d after a clean solve", v)
	}
	// A hopeless operating point (far above spec supply at high frequency)
	// must be reported, not silently absorbed.
	hot := gridInputs(fp, nominalInputs(fp, vp, 1.0), vp.VddNomV*1.6, 0.4, 3.0)
	if _, err := sv.CoreSteady(hot, 3.0); err == nil {
		t.Skip("operating point unexpectedly feasible; counter path untestable here")
	}
	if v := reg.Counter("thermal.nonconverged").Value(); v < 1 {
		t.Fatalf("thermal.nonconverged = %d after failed solve, want >= 1", v)
	}
}
