package core

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/tech"
	"repro/internal/workload"
)

// appRunParams is the apprun key material as one struct: artifact.Key
// over it defines the apprun key, and the pre-images appRunKey assembles
// from encoded blocks must match its encoding byte for byte.
type appRunParams struct {
	machineParams
	TraceLen int `json:"trace_len"`

	Mode      Mode                  `json:"mode"`
	App       string                `json:"app"`
	Trace     string                `json:"trace,omitempty"`
	Class     workload.Class        `json:"class"`
	Phases    []workload.Phase      `json:"phases"`
	PhaseOnly *int                  `json:"phase_only,omitempty"`
	Solver    string                `json:"solver,omitempty"`
	Static    *adapt.OperatingPoint `json:"static,omitempty"`
}

// refAppRunKey is the reference apprun key: artifact.Key over
// appRunParams, "" where it errs or the unit is uncacheable.
func refAppRunKey(s *Simulator, seed int64, cfg tech.Config, app workload.App,
	mode Mode, solverFP string, static *adapt.OperatingPoint, phase int) string {
	if (mode != Static && solverFP == "") || phase >= len(app.Phases) {
		return ""
	}
	return storeKey(s.store, apprunKind, seed, func() any {
		params := appRunParams{
			machineParams: s.machineParams(cfg),
			TraceLen:      s.opts.TraceLen,
			Mode:          mode,
			App:           app.Name,
			Trace:         app.Trace,
			Class:         app.Class,
			Phases:        app.Phases,
			Solver:        solverFP,
			Static:        static,
		}
		if phase >= 0 {
			params.PhaseOnly = &phase
		}
		return params
	})
}

// anchorParams is the key material of a Baseline or NoVar anchor run as
// one struct, the reference anchorKey's spliced pre-image must match.
type anchorParams struct {
	machineParams
	TraceLen int `json:"trace_len"`

	Anchor anchorID         `json:"anchor"`
	App    string           `json:"app"`
	Trace  string           `json:"trace,omitempty"`
	Class  workload.Class   `json:"class"`
	Phases []workload.Phase `json:"phases"`
}

// refAnchorKey is the reference anchor key: artifact.Key over
// anchorParams.
func refAnchorKey(s *Simulator, seed int64, env Environment, app workload.App, fRel float64) string {
	return storeKey(s.store, apprunKind, seed, func() any {
		return anchorParams{
			machineParams: s.machineParams(env.Config()),
			TraceLen:      s.opts.TraceLen,
			Anchor:        anchorID{Env: env.String(), FRel: fRel},
			App:           app.Name,
			Trace:         app.Trace,
			Class:         app.Class,
			Phases:        app.Phases,
		}
	})
}

// staticPointParams is the staticpt key material as one struct, the
// reference staticPointKey's spliced pre-image must match.
type staticPointParams struct {
	machineParams
	TraceLen int `json:"trace_len"`

	Class workload.Class  `json:"class"`
	Suite []profileParams `json:"suite"`
}

// refStaticPointKey is the reference staticpt key: artifact.Key over
// staticPointParams.
func refStaticPointKey(s *Simulator, seed int64, cfg tech.Config, class workload.Class, apps []workload.App) string {
	return storeKey(s.store, staticptKind, seed, func() any {
		return staticPointParams{
			machineParams: s.machineParams(cfg),
			TraceLen:      s.opts.TraceLen,
			Class:         class,
			Suite:         s.suiteParams(apps, func(app workload.App) bool { return app.Class == class }),
		}
	})
}

// solverParams is the solver key material as one struct, the reference
// solverKey's spliced pre-image must match.
type solverParams struct {
	machineParams

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

// refSolverKey is the reference solver key: artifact.Key over
// solverParams.
func refSolverKey(s *Simulator, cfg tech.Config, chipSeeds []int64, opts adapt.TrainOptions) string {
	return storeKey(s.store, solverKind, opts.Seed, func() any {
		return solverParams{
			machineParams: s.machineParams(cfg),
			ChipSeeds:     chipSeeds,
			Examples:      opts.Examples,
			Rules:         opts.Fuzzy.Rules,
			LearningRate:  opts.Fuzzy.LearningRate,
			Epochs:        opts.Fuzzy.Epochs,
			SigmaInit:     opts.Fuzzy.SigmaInit,
			FuzzySeed:     opts.Fuzzy.Seed,
			MinBiasComp:   opts.MinBiasComp,
			THLoK:         opts.THLoK,
			THHiK:         opts.THHiK,
			AlphaLo:       opts.AlphaLo,
			AlphaHi:       opts.AlphaHi,
			CPILo:         opts.CPILo,
			CPIHi:         opts.CPIHi,
		}
	})
}

// keyStore opens a store for key derivation only (appRunKey keys nothing
// without one).
func keyStore(tb testing.TB, dir string) *artifact.Store {
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(store.Close)
	return store
}

// configOf maps the low five bits to a technique configuration: Table 1's
// and every other combination, the ones Validate rejects included (keys
// do not validate).
func configOf(bits uint8) tech.Config {
	return tech.Config{TimingSpec: bits&1 != 0, ASV: bits&2 != 0, ABB: bits&4 != 0,
		QueueResize: bits&8 != 0, FUReplication: bits&16 != 0}
}

// FuzzAppRunKeyVsKey: every spliced key — apprun, anchor, profile,
// staticpt and solver — equals artifact.Key over its whole params
// struct, for app names and traces JSON must escape or repair, every
// mode, phases -1 through len (len is uncacheable), empty and non-empty
// solver names, static points holding any float, any technique
// configuration, and options holding any float; and wherever
// encoding/json rejects the material, both keys are empty. Each input
// also keys the app under the same name with one phase field replaced by
// x, then by -x, with another trace, with another class, and then as it
// was, so a stale app encoding shows. The profile key is checked for
// every phase at its position and for one moved off it; the staticpt key
// for both classes over the app alone (one class has no apps: a null
// suite) and with a suite app of the other class; the anchor key of
// either anchor at frequency x; the solver key with x as a training
// option, for one chip seed and for none.
func FuzzAppRunKeyVsKey(f *testing.F) {
	store := keyStore(f, f.TempDir())
	gcc, err := workload.ByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	swim, err := workload.ByName("swim")
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, name, trace string, modeSel, phaseSel uint8, solverFP string,
		staticSel uint8, x float64, cfgBits uint8, optsX bool, seed int64) {
		opts := DefaultOptions()
		if optsX {
			opts.Limits.PEMax = x
		}
		sim := &Simulator{opts: opts, store: store}
		app := workload.App{Name: name, Trace: trace, Class: gcc.Class, Phases: slices.Clone(gcc.Phases)}
		n := len(app.Phases)
		mode := Mode(modeSel % uint8(NumModes))
		phase := int(phaseSel)%(n+2) - 1
		cfg := configOf(cfgBits)
		var static *adapt.OperatingPoint
		switch staticSel % 3 {
		case 1:
			static = &adapt.OperatingPoint{FCore: x, VddV: []float64{1, 1.05}, VbbV: []float64{0, -0.1}}
		case 2:
			static = &adapt.OperatingPoint{FCore: 1.1, VddV: []float64{1, x}, Queue: tech.QueueThreeQuarter, FU: tech.FULowSlope}
		}
		training := adapt.DefaultTrainOptions()
		training.THHiK = x
		var chipSeeds []int64
		if phaseSel%2 == 1 {
			chipSeeds = []int64{seed}
		}
		check := func(label string, app workload.App) {
			want := refAppRunKey(sim, seed, cfg, app, mode, solverFP, static, phase)
			if got := sim.appRunKey(seed, cfg, app, mode, solverFP, static, phase); got != want {
				t.Fatalf("%s: appRunKey = %q, artifact.Key gives %q", label, got, want)
			}
			for _, env := range []Environment{Baseline, NoVar} {
				if got, want := sim.anchorKey(seed, env, app, x), refAnchorKey(sim, seed, env, app, x); got != want {
					t.Fatalf("%s: %v anchorKey = %q, artifact.Key gives %q", label, env, got, want)
				}
			}
			for i, ph := range app.Phases {
				for _, p := range []workload.Phase{ph, {Index: i + 1, Weight: ph.Weight, Mix: ph.Mix}} {
					want := storeKey(store, profileKind, seed, func() any { return sim.profileParams(app, p) })
					if got := sim.profileKey(app, p, seed); got != want {
						t.Fatalf("%s phase %d (index %d): profileKey = %q, artifact.Key gives %q", label, i, p.Index, got, want)
					}
				}
			}
			for _, apps := range [][]workload.App{{app}, {swim, app}} {
				for _, class := range []workload.Class{workload.Int, workload.FP} {
					want := refStaticPointKey(sim, seed, cfg, class, apps)
					if got := sim.staticPointKey(seed, cfg, class, apps); got != want {
						t.Fatalf("%s, %d apps, class %v: staticPointKey = %q, artifact.Key gives %q", label, len(apps), class, got, want)
					}
				}
			}
			if got, want := sim.solverKey(cfg, chipSeeds, training), refSolverKey(sim, cfg, chipSeeds, training); got != want {
				t.Fatalf("%s: solverKey = %q, artifact.Key gives %q", label, got, want)
			}
		}
		edit := func(v float64) workload.App {
			e := app
			e.Phases = slices.Clone(app.Phases)
			p := &e.Phases[int(phaseSel)%n]
			switch phaseSel % 3 {
			case 0:
				p.Weight = v
			case 1:
				p.Mix.L2MissRate = v
			case 2:
				p.Signature ^= math.Float64bits(v)
			}
			return e
		}
		otherTrace, otherClass := app, app
		otherTrace.Trace += "'"
		otherClass.Class = workload.FP
		// Each variant follows a unit whose block it must not reuse: the
		// -x phases differ from the x ones only in the sign bit, which ==
		// ignores at 0, and the other trace and class each follow the
		// unedited app.
		for _, c := range []struct {
			label string
			app   workload.App
		}{
			{"app", app}, {"phase field x", edit(x)}, {"phase field -x", edit(-x)},
			{"app again", app}, {"other trace", otherTrace},
			{"app again", app}, {"other class", otherClass}, {"app again", app},
		} {
			check(c.label, c.app)
		}
	})
}

// TestAppRunKeyConcurrent: goroutines keying overlapping units — apps
// sharing names with different phases, several configurations — against
// one simulator all get the reference keys, under -race too.
func TestAppRunKeyConcurrent(t *testing.T) {
	sim := &Simulator{opts: DefaultOptions(), store: keyStore(t, t.TempDir())}
	var apps []workload.App
	for _, name := range []string{"gcc", "swim", "mcf"} {
		app, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		edited := app
		edited.Phases = slices.Clone(app.Phases)
		edited.Phases[0].Weight = math.Copysign(0, -1)
		apps = append(apps, app, edited)
	}
	static := &adapt.OperatingPoint{FCore: 1.1, VddV: []float64{1, 1.05}, VbbV: []float64{0, -0.1}}
	type unit struct {
		app   workload.App
		cfg   tech.Config
		mode  Mode
		phase int
		want  string
	}
	var units []unit
	for _, app := range apps {
		for _, env := range AdaptiveEnvironments() {
			for mode := Static; mode < NumModes; mode++ {
				for phase := -1; phase < len(app.Phases); phase++ {
					u := unit{app: app, cfg: env.coreConfig(), mode: mode, phase: phase}
					u.want = refAppRunKey(sim, 7, u.cfg, app, mode, "fp", static, phase)
					if u.want == "" {
						t.Fatalf("%s %v %v phase %d: no reference key", app.Name, env, mode, phase)
					}
					units = append(units, u)
				}
			}
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range units {
				u := units[(i*7+w*13)%len(units)]
				if got := sim.appRunKey(7, u.cfg, u.app, u.mode, "fp", static, u.phase); got != u.want {
					errs <- fmt.Errorf("%s %+v %v phase %d: key %s, want %s", u.app.Name, u.cfg, u.mode, u.phase, got, u.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestSamePhasesCoversPhase pins the fields samePhases compares: a field
// added to workload.Phase or workload.Mix must be compared there too, or
// an app block encoded before the field changed would be reused after.
func TestSamePhasesCoversPhase(t *testing.T) {
	for _, c := range []struct {
		v    any
		want int
	}{{workload.Phase{}, 4}, {workload.Mix{}, 9}} {
		if got := reflect.TypeOf(c.v).NumField(); got != c.want {
			t.Errorf("%T has %d fields; samePhases compares %d — update it", c.v, got, c.want)
		}
	}
	base, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	for _, edit := range []func(*workload.Phase){
		func(p *workload.Phase) { p.Index++ },
		func(p *workload.Phase) { p.Signature++ },
		func(p *workload.Phase) { p.Weight = math.Copysign(p.Weight, -1) },
		func(p *workload.Phase) { p.Mix.MemOverlap = math.NaN() },
	} {
		edited := slices.Clone(base.Phases)
		edit(&edited[len(edited)-1])
		if samePhases(base.Phases, edited) {
			t.Errorf("samePhases missed an edit: %+v", edited[len(edited)-1])
		}
	}
	if !samePhases(base.Phases, slices.Clone(base.Phases)) {
		t.Error("samePhases rejects a copy")
	}
	if samePhases(nil, []workload.Phase{}) {
		t.Error("samePhases equates nil and empty phases, which encode as null and []")
	}
}
