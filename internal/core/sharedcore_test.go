package core

import (
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestSharedCoreWorkerPath drives the experiment fan-out with as many
// workers as chips, so units of different chips and of one chip's
// environments run concurrently. Each chip's units share its ChipHandle —
// one stage build and one PE-table store per chip, plus the handle's
// per-configuration memos — while each unit drives its own core. Under
// `go test -race` this exercises the adapt package's ownership rule end
// to end: memos and scratch are per core and single-goroutine, and only
// the handle's table store and memo entries are shared.
func TestSharedCoreWorkerPath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chip experiment")
	}
	s := newSim(t)
	cfg := DefaultExperimentConfig()
	cfg.Chips = 3
	cfg.Workers = 3
	cfg.Apps = []string{"gcc", "swim"}
	cfg.Envs = []Environment{TSASV, All}
	cfg.Modes = []Mode{Static, ExhDyn}
	sum, err := s.RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same experiment serially must agree exactly: per-chip results
	// cannot depend on worker interleaving.
	s2 := newSim(t)
	cfg.Workers = 1
	sum2, err := s2.RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range cfg.Envs {
		for _, mode := range cfg.Modes {
			a, err := sum.CellFor(env, mode)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sum2.CellFor(env, mode)
			if err != nil {
				t.Fatal(err)
			}
			if a.FRel != b.FRel || a.PerfR != b.PerfR || a.PowerW != b.PowerW {
				t.Errorf("%v/%v: parallel %+v != serial %+v", env, mode, a, b)
			}
		}
	}
}

// TestRunDynamicRejectsNonTableConfig: a core configured outside the
// Table 1 set must be refused by UnitAppRun, whose runs carry an
// environment label, in dynamic and Static modes alike.
func TestRunDynamicRejectsNonTableConfig(t *testing.T) {
	s := newSim(t)
	donor, err := s.BuildCore(s.Chip(3), TS)
	if err != nil {
		t.Fatal(err)
	}
	core, err := donor.WithConfig(Figure13Configs()[1].Config) // TS+ABB
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.UnitAppRun(3, core, ExhDyn, adapt.Exhaustive{}, FleetUnit{App: app, Phase: -1}); err == nil {
		t.Error("a dynamic unit accepted a non-Table-1 config")
	}
	static := FleetUnit{App: app, Phase: -1, Static: &adapt.OperatingPoint{FCore: 1}}
	if _, err := s.UnitAppRun(3, core, Static, nil, static); err == nil {
		t.Error("a Static unit accepted a non-Table-1 config")
	}
}

// TestHandleSolverMemo: goroutines racing HandleSolver and the load on
// one handle for two configurations train each configuration's
// controllers once. Every caller of a configuration gets the same solver
// and name, the name is the solver record key of the configuration, the
// chip and the options, and the configurations get different
// controllers. Under -race this checks that the memo is safe without
// holding the handle's lock across training.
func TestHandleSolverMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training")
	}
	s := newSim(t)
	reg := obs.NewRegistry()
	s.SetObs(reg)
	h, err := s.AcquireChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.ReleaseChip(h)
	opts := adapt.DefaultTrainOptions()
	opts.Examples = 40
	opts.Fuzzy.Epochs = 1
	opts.Obs = reg

	envs := []Environment{TS, TSASV}
	const callers = 4
	type answer struct {
		sv     adapt.Solver
		name   string
		loaded *adapt.FuzzySolver
		err    error
	}
	got := make([][callers]answer, len(envs))
	var wg sync.WaitGroup
	for ei, env := range envs {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				a := &got[ei][c]
				cpu, err := s.HandleCore(h, env)
				if err != nil {
					a.err = err
					return
				}
				if a.sv, a.name, a.err = s.HandleSolver(h, cpu, opts); a.err != nil {
					return
				}
				sv, err := unitSolver(a.sv)
				if err != nil {
					a.err = err
					return
				}
				a.loaded = sv.(*adapt.FuzzySolver)
			}()
		}
	}
	wg.Wait()

	trained := 0
	for ei, env := range envs {
		first := got[ei][0]
		if first.err != nil || first.loaded == nil {
			t.Fatalf("%v: solver %v, err %v", env, first.loaded, first.err)
		}
		for c, a := range got[ei] {
			if a.err != nil || a.sv != first.sv || a.name != first.name || a.loaded != first.loaded {
				t.Errorf("%v caller %d: got (%p, %q, %p, %v), want (%p, %q, %p)",
					env, c, a.sv, a.name, a.loaded, a.err, first.sv, first.name, first.loaded)
			}
		}
		if want := s.solverKey(env.coreConfig(), []int64{h.seed}, opts); first.name != want {
			t.Errorf("%v name %q, want the solver key %q", env, first.name, want)
		}
		trained += first.loaded.ControllerCount()
	}
	if got[0][0].loaded == got[1][0].loaded || got[0][0].name == got[1][0].name {
		t.Errorf("%v and %v share one solver", envs[0], envs[1])
	}
	if n := reg.Counter("fuzzy.train.controllers").Value(); n != int64(trained) {
		t.Errorf("trained %d controllers, want %d (one training per configuration)", n, trained)
	}
}

// TestHandleSolverPerOptions: one handle asked for one configuration's
// controllers under two training option sets names each by its own
// solver record key and gives each the controllers a fresh training
// under its options fits, not the first set's under the second's name.
func TestHandleSolverPerOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training")
	}
	s := newSim(t)
	h, err := s.AcquireChip(1000)
	if err != nil {
		t.Fatal(err)
	}
	defer s.ReleaseChip(h)
	cpu, err := s.HandleCore(h, TSASV)
	if err != nil {
		t.Fatal(err)
	}
	a := adapt.DefaultTrainOptions()
	a.Examples = 40
	a.Fuzzy.Epochs = 1
	b := a
	b.Seed++

	names := map[string]bool{}
	for _, opts := range []adapt.TrainOptions{a, b} {
		sv, name, err := s.HandleSolver(h, cpu, opts)
		if err != nil {
			t.Fatal(err)
		}
		if want := s.solverKey(cpu.Config, []int64{h.seed}, opts); name != want {
			t.Errorf("seed %d: name %q, want the solver key %q", opts.Seed, name, want)
		}
		names[name] = true
		got, err := unitSolver(sv)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := s.BuildCore(s.Chip(h.seed), TSASV)
		if err != nil {
			t.Fatal(err)
		}
		want, err := adapt.TrainFuzzySolver([]*adapt.Core{fresh}, opts)
		if err != nil {
			t.Fatal(err)
		}
		gb, err := got.(*adapt.FuzzySolver).MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wb, err := want.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if string(gb) != string(wb) {
			t.Errorf("seed %d: the handle's controllers differ from a fresh training under the same options", opts.Seed)
		}
	}
	if len(names) != 2 {
		t.Errorf("two option sets got %d names", len(names))
	}
}
