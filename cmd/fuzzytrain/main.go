// Command fuzzytrain runs the manufacturer-side training of §4.3.1: it
// labels random operating situations with the Exhaustive algorithm, trains
// the per-subsystem fuzzy controllers (Appendix A), measures their accuracy
// against Exhaustive (the Table 2 methodology), and can save the
// controllers to disk.
//
// By default training is per chip, as the paper prescribes (a software
// model of the specific die); -fleet trains one controller set across
// several dies instead, to study cross-chip generalization.
//
// Usage:
//
//	fuzzytrain -env TS+ASV -examples 2000
//	fuzzytrain -env TS+ASV -fleet -trainchips 4   # generalization study
//	fuzzytrain -env ALL -examples 10000 -out controllers.json
//	fuzzytrain -env TS+ASV -workers 8             # parallel training
//
// -workers fans the per-(subsystem, variant) example labeling and
// controller fits across a worker pool (0, the default, uses GOMAXPROCS).
// Trained controllers are byte-identical at every worker count.
//
// With -cache-dir (or $EVAL_CACHE_DIR) the per-chip trained controllers
// are also written into the persistent artifact cache, keyed by the full
// training fingerprint (machine config, technique config, chip seed,
// training options — see the artifact package doc). A later evalsim run
// against the same cache directory then loads them instead of retraining,
// with no extra flag plumbing: per-chip training here uses chip seeds
// seed+0..evalchips-1, the same seeds evalsim's experiments evaluate.
// -no-cache forces the cache off.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/mathx"
	"repro/internal/tech"
	"repro/internal/vats"
)

func main() {
	var (
		envName  = flag.String("env", "TS+ASV", "environment (TS, TS+ASV, TS+ASV+ABB, TS+ASV+Q, TS+ASV+Q+FU, ALL)")
		examples = flag.Int("examples", 2000, "training examples per controller (paper: 10000)")
		chips    = flag.Int("trainchips", 2, "training chips (fleet mode)")
		evals    = flag.Int("evalchips", 2, "evaluation chips")
		fleet    = flag.Bool("fleet", false, "train one controller set across trainchips dies instead of per chip")
		seed     = flag.Int64("seed", 1000, "base seed")
		out      = flag.String("out", "", "optional path to save the trained controllers (JSON)")
		workers  = flag.Int("workers", 0, "worker goroutines for training (0 = GOMAXPROCS)")
	)
	openStore := artifact.CacheFlags(flag.CommandLine)
	flag.Parse()

	env, err := parseEnv(*envName)
	if err != nil {
		fatal(err)
	}
	sim, err := core.NewSimulator(core.DefaultOptions())
	if err != nil {
		fatal(err)
	}
	store, err := openStore(artifact.Options{})
	if err != nil {
		fatal(err)
	}
	defer store.Close() // save the index (each write is already on disk); nil-safe
	sim.SetArtifacts(store)

	cfg := core.DefaultExperimentConfig()
	cfg.SeedBase = *seed
	cfg.TrainChips = *chips
	cfg.Training.Examples = *examples
	if *workers < 1 {
		*workers = runtime.GOMAXPROCS(0)
	}
	cfg.Training.Workers = *workers

	var solver *adapt.FuzzySolver
	start := time.Now()
	if *fleet {
		fmt.Printf("fleet-training fuzzy controllers for %s: %d examples/controller on %d dies...\n",
			env, *examples, *chips)
		solver, err = sim.TrainSolver(env, cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trained %d controllers in %.1fs\n", solver.ControllerCount(), time.Since(start).Seconds())
	}

	// Accuracy against Exhaustive, Table 2 style.
	var fErr, vddErr []float64
	rng := mathx.NewRNG(*seed + 999)
	for c := 0; c < *evals; c++ {
		// Per-chip evaluation (and training) uses the same chip seeds as
		// evalsim's experiments (SeedBase+0..chips-1), so the cached
		// controllers trained here are the ones evalsim will look up.
		chipSeed := *seed + int64(c)
		chip := sim.Chip(chipSeed)
		coreView, err := sim.BuildCore(chip, env)
		if err != nil {
			fatal(err)
		}
		if !*fleet {
			fmt.Printf("training chip %d's controllers: %d examples/controller...\n", c, *examples)
			t0 := time.Now()
			solver, err = sim.TrainFuzzyCached([]*adapt.Core{coreView}, []int64{chipSeed}, cfg.Training)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("-> %d controllers in %.1fs\n", solver.ControllerCount(), time.Since(t0).Seconds())
		}
		for i := 0; i < coreView.N(); i++ {
			for q := 0; q < 8; q++ {
				query := adapt.FreqQuery{
					THK:       rng.Uniform(48+273.15, 68+273.15),
					AlphaF:    rng.Uniform(0.02, 1.0),
					Variant:   vats.IdentityVariant(),
					PowerMult: 1,
				}
				query.Rho = query.AlphaF * rng.Uniform(0.8, 4.5)
				fx := coreView.FreqSolve(i, query).FMax
				ff := solver.FreqMax(coreView, i, query)
				fErr = append(fErr, math.Abs(fx-ff)*4000)
				fCore := tech.SnapFRelDown(fx * rng.Uniform(0.8, 1.0))
				pxV, _ := (adapt.Exhaustive{}).PowerLevels(coreView, i, fCore, query)
				pfV, _ := solver.PowerLevels(coreView, i, fCore, query)
				vddErr = append(vddErr, math.Abs(pxV-pfV)*1000)
			}
		}
	}
	fmt.Printf("accuracy vs Exhaustive on %d chips:\n", *evals)
	fmt.Printf("  |freq error| mean %.0f MHz (%.1f%% of nominal; paper Table 2: ~135-450 MHz)\n",
		mathx.Mean(fErr), mathx.Mean(fErr)/4000*100)
	fmt.Printf("  |Vdd  error| mean %.0f mV (paper Table 2: ~14-24 mV)\n", mathx.Mean(vddErr))

	if *out != "" {
		blob, err := json.MarshalIndent(solver, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("controllers saved to %s (%d bytes)\n", *out, len(blob))
	}
}

func parseEnv(name string) (core.Environment, error) {
	for _, e := range core.AdaptiveEnvironments() {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown environment %q", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fuzzytrain:", err)
	os.Exit(1)
}
