package core

import (
	"crypto/sha256"
	"encoding/hex"
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

// TestHandleSolverMemo: goroutines racing HandleSolver on one handle for
// two configurations train each configuration's controllers once. Every
// caller of a configuration gets the same solver, the configurations get
// different ones, and the returned fingerprint is the digest of the
// solver's encoding. Under -race this checks that the memo is safe
// without holding the handle's lock across training.
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
		sv  *adapt.FuzzySolver
		fp  string
		err error
	}
	got := make([][callers]answer, len(envs))
	var wg sync.WaitGroup
	for ei, env := range envs {
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cpu, err := s.HandleCore(h, env)
				if err != nil {
					got[ei][c].err = err
					return
				}
				sv, fp, err := s.HandleSolver(h, cpu, opts)
				got[ei][c] = answer{sv, fp, err}
			}()
		}
	}
	wg.Wait()

	trained := 0
	for ei, env := range envs {
		first := got[ei][0]
		if first.err != nil || first.sv == nil {
			t.Fatalf("%v: solver %v, err %v", env, first.sv, first.err)
		}
		for c, a := range got[ei] {
			if a.err != nil || a.sv != first.sv || a.fp != first.fp {
				t.Errorf("%v caller %d: got (%p, %q, %v), want (%p, %q)", env, c, a.sv, a.fp, a.err, first.sv, first.fp)
			}
		}
		b, err := first.sv.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		if want := hex.EncodeToString(sum[:]); first.fp != want {
			t.Errorf("%v fingerprint %q, want %q", env, first.fp, want)
		}
		trained += first.sv.ControllerCount()
	}
	if got[0][0].sv == got[1][0].sv {
		t.Errorf("%v and %v share one solver", envs[0], envs[1])
	}
	if n := reg.Counter("fuzzy.train.controllers").Value(); n != int64(trained) {
		t.Errorf("trained %d controllers, want %d (one training per configuration)", n, trained)
	}
}
