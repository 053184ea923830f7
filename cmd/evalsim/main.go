// Command evalsim runs the EVAL evaluation experiments and prints the rows
// and series of the paper's tables and figures.
//
// Usage:
//
//	evalsim -experiment fig10 -chips 20 -apps gcc,swim,mcf
//	evalsim -experiment fig8 -chip 3 -app swim
//	evalsim -experiment table2 -chips 4 -examples 2000
//	evalsim -experiment summary -chips 8 -modes static,exh -tracelen 40000
//	evalsim -experiment summary -chips 2 -metrics -progress
//	evalsim -experiment areas
//
// Experiments: fig1, fig2, fig4, fig8, fig9, fig10, fig11, fig12, fig13,
// table2, areas, summary (fig10+fig11+fig12 in one run), retime (the §7
// dynamic-retiming baseline comparison), schemes (Diva vs Razor vs
// Paceline error tolerance), cmp (4-core die binning: slowest-core clock
// vs per-core EVAL adaptation), ablate (sensitivity of the headline
// quantities to the model's design choices).
//
// Experiment flags:
//
//	-experiment name  which table/figure to regenerate (default summary)
//	-chips n          number of evaluation chips (paper: 100)
//	-seed n           base seed for chip generation
//	-apps a,b,c       app subset (default: the full 26-app suite)
//	-chip n, -app s   chip seed / application for the single-chip figures
//	                  (fig1, fig2, fig4, fig8, fig9)
//	-modes m,m        adaptation modes for fig10-12/summary, any of
//	                  static, fuzzy, exh (default all three)
//	-examples n       fuzzy training examples per controller (paper: 10000)
//	-tracelen n       instructions per phase profile (trace length)
//	-workers n        worker goroutines for the chip×env / config×chip /
//	                  env×chip work queues of summary, fig10-13, and
//	                  table2 (0 = GOMAXPROCS); results are byte-identical
//	                  at every worker count
//
// Workload flags (summary, fig10-13, table2; see WORKLOADS.md):
//
//	-workload-spec f  generate the application set from a workload spec
//	                  JSON instead of the proxy suite; mutually exclusive
//	                  with -apps and -trace
//	-workload-seed n  generation seed for -workload-spec (default 1);
//	                  (spec, seed) fully determine the workload
//	-trace f          replay a recorded TraceV1 trace file ("-" = stdin),
//	                  e.g. one emitted by tracegen; rows are identical to
//	                  the live-generated run of the same (spec, seed)
//
// Artifact-cache flags (see README "Artifact cache"):
//
//	-cache-dir dir    persistent content-addressed cache of chips, phase
//	                  profiles, trained fuzzy solvers, PE tables,
//	                  generated traces, static operating points, and
//	                  per-app adaptation results; repeated runs load
//	                  instead of rebuild. Default off; an empty flag
//	                  falls back to $EVAL_CACHE_DIR. Results are
//	                  byte-identical with or without the cache.
//	-no-cache         force the cache off even if EVAL_CACHE_DIR is set
//
// Observability flags (any experiment; see README "Observability &
// profiling"):
//
//	-progress         live per-worker status line on stderr
//	-metrics          print a metrics footer (stage timers, controller
//	                  outcome counters, worker occupancy) at exit
//	-cpuprofile file  write a pprof CPU profile of the run
//	-memprofile file  write a pprof heap profile at exit
//	-trace-out file   write a Chrome trace-event JSON of the nested
//	                  chip → env → mode → app spans
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/adapt"
	"repro/internal/artifact"
	cmppkg "repro/internal/cmp"
	"repro/internal/core"
	"repro/internal/floorplan"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/tech"
	"repro/internal/varius"
	"repro/internal/vats"
	"repro/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "summary", "which table/figure to regenerate")
		chips      = flag.Int("chips", 8, "number of evaluation chips (paper: 100)")
		seed       = flag.Int64("seed", 1000, "base seed for chip generation")
		apps       = flag.String("apps", "", "comma-separated app subset (default: full 26-app suite)")
		chip       = flag.Int64("chip", 3, "chip seed for single-chip figures (fig1/fig2/fig8/fig9)")
		app        = flag.String("app", "swim", "application for single-chip figures")
		examples   = flag.Int("examples", 1500, "fuzzy training examples per controller (paper: 10000)")
		traceLen   = flag.Int("tracelen", pipeline.DefaultTraceLen, "instructions per phase profile")
		modes      = flag.String("modes", "static,fuzzy,exh", "adaptation modes for fig10-12")
		wlSpec     = flag.String("workload-spec", "", "workload spec JSON to generate the app set from (see WORKLOADS.md)")
		wlSeed     = flag.Int64("workload-seed", 1, "generation seed for -workload-spec")
		tracePath  = flag.String("trace", "", "TraceV1 trace file to replay (\"-\" = stdin)")
		workers    = flag.Int("workers", 0, "worker goroutines for the experiment work queues (0 = GOMAXPROCS)")
		progress   = flag.Bool("progress", false, "render live per-worker progress to stderr")
		metrics    = flag.Bool("metrics", false, "print a metrics footer (timers, counters, occupancy) at exit")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
		traceOut   = flag.String("trace-out", "", "write a Chrome trace-event JSON of chip/app spans to this file")
	)
	openStore := artifact.CacheFlags(flag.CommandLine)
	flag.Parse()

	var reg *obs.Registry
	if *metrics {
		reg = obs.NewRegistry()
	}
	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}
	store, err := openStore(artifact.Options{Obs: reg})
	if err != nil {
		fatal(err)
	}
	defer store.Close() // save the index (each write is already on disk); nil-safe
	// instrument attaches the run's observability sinks and the artifact
	// store to a simulator; every simulator the experiments construct goes
	// through it.
	instrument := func(s *core.Simulator) *core.Simulator {
		s.SetObs(reg)
		s.SetTracer(tracer)
		s.SetArtifacts(store)
		if *progress {
			s.SetProgressWriter(os.Stderr)
		}
		return s
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := core.DefaultOptions()
	opts.TraceLen = *traceLen
	sim, err := core.NewSimulator(opts)
	if err != nil {
		fatal(err)
	}
	instrument(sim)
	cfg := core.DefaultExperimentConfig()
	cfg.Chips = *chips
	cfg.SeedBase = *seed
	cfg.Training.Examples = *examples
	cfg.Workers = *workers
	if *apps != "" {
		cfg.Apps = strings.Split(*apps, ",")
	}
	if cfg.Workloads, err = resolveWorkloads(sim, *wlSpec, *wlSeed, *tracePath, *apps); err != nil {
		fatal(err)
	}
	if cfg.Modes, err = parseModes(*modes); err != nil {
		fatal(err)
	}

	expSW := reg.Timer("evalsim.experiment").Start()
	switch *experiment {
	case "fig1":
		err = runFig1(sim, *chip)
	case "fig2":
		err = runFig2(sim, *chip, *app)
	case "fig4":
		err = runFig4(sim, *chip, *app)
	case "fig8":
		err = runFig8(sim, *chip, *app)
	case "fig9":
		err = runFig9(sim, *chip, *app)
	case "fig10", "fig11", "fig12", "summary":
		err = runSummary(sim, cfg, *experiment)
	case "fig13":
		err = runFig13(sim, cfg)
	case "table2":
		err = runTable2(sim, cfg)
	case "areas":
		err = runAreas()
	case "retime":
		err = runRetime(sim, *chips, *seed)
	case "schemes":
		err = runSchemes(cfg, *traceLen)
	case "cmp":
		err = runCMP(*chips, *seed, instrument)
	case "ablate":
		err = runAblate(sim, *chips, *seed, instrument)
	default:
		err = fmt.Errorf("unknown experiment %q", *experiment)
	}
	expSW.Stop()
	if err != nil {
		fatal(err)
	}
	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fatal(ferr)
		}
		runtime.GC() // flush garbage so the heap profile shows live data
		if werr := pprof.WriteHeapProfile(f); werr != nil {
			fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			fatal(cerr)
		}
	}
	if tracer != nil {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			fatal(ferr)
		}
		if werr := tracer.WriteChromeTrace(f); werr != nil {
			fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			fatal(cerr)
		}
		fmt.Fprintf(os.Stderr, "evalsim: wrote %d spans to %s\n", tracer.Len(), *traceOut)
	}
	if reg != nil {
		fmt.Println()
		if werr := reg.WriteSummary(os.Stdout); werr != nil {
			fatal(werr)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evalsim:", err)
	os.Exit(1)
}

// resolveWorkloads loads the generated or replayed application set when
// -workload-spec or -trace is given (nil otherwise: the proxy suite or
// -apps subset applies). Both paths lower through workload.TraceV1, so a
// replayed trace yields rows identical to the live-generated run of the
// same (spec, seed).
func resolveWorkloads(sim *core.Simulator, specPath string, specSeed int64, tracePath, apps string) ([]workload.App, error) {
	if specPath == "" && tracePath == "" {
		return nil, nil
	}
	if specPath != "" && tracePath != "" {
		return nil, fmt.Errorf("-workload-spec and -trace are mutually exclusive")
	}
	if apps != "" {
		return nil, fmt.Errorf("-apps cannot be combined with -workload-spec or -trace")
	}
	if specPath != "" {
		data, err := os.ReadFile(specPath)
		if err != nil {
			return nil, err
		}
		spec, err := workload.DecodeSpec(data)
		if err != nil {
			return nil, err
		}
		return sim.GeneratedApps(*spec, specSeed)
	}
	var data []byte
	var err error
	if tracePath == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(tracePath)
	}
	if err != nil {
		return nil, err
	}
	t, err := workload.DecodeTrace(data)
	if err != nil {
		return nil, err
	}
	return t.Lower()
}

func parseModes(s string) ([]core.Mode, error) {
	var out []core.Mode
	for _, m := range strings.Split(s, ",") {
		switch strings.TrimSpace(m) {
		case "static":
			out = append(out, core.Static)
		case "fuzzy":
			out = append(out, core.FuzzyDyn)
		case "exh":
			out = append(out, core.ExhDyn)
		default:
			return nil, fmt.Errorf("unknown mode %q in -modes (want static, fuzzy, exh)", strings.TrimSpace(m))
		}
	}
	return out, nil
}

func runSummary(sim *core.Simulator, cfg core.ExperimentConfig, which string) error {
	sum, err := sim.RunSummary(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("# %d chips x %d apps; values relative to NoVar\n", sum.Chips, len(sum.Apps))
	fmt.Printf("Baseline: fRel=%.3f perfR=%.3f power=%.1fW (paper: 0.78 / ~0.7 / ~17W)\n",
		sum.BaselineFRel, sum.BaselinePerfR, sum.BaselinePowerW)
	fmt.Printf("NoVar:    fRel=1.000 perfR=1.000 power=%.1fW (paper: ~25W)\n\n", sum.NoVarPowerW)
	if which == "fig10" || which == "summary" {
		printCells("Figure 10: relative frequency", sum, func(c core.Cell) float64 { return c.FRel })
	}
	if which == "fig11" || which == "summary" {
		printCells("Figure 11: relative performance", sum, func(c core.Cell) float64 { return c.PerfR })
	}
	if which == "fig12" || which == "summary" {
		printCells("Figure 12: power per processor (W)", sum, func(c core.Cell) float64 { return c.PowerW })
	}
	return nil
}

func printCells(title string, sum *core.Summary, metric func(core.Cell) float64) {
	fmt.Println(title)
	modes := []core.Mode{}
	seen := map[core.Mode]bool{}
	for _, c := range sum.Cells {
		if !seen[c.Mode] {
			seen[c.Mode] = true
			modes = append(modes, c.Mode)
		}
	}
	sort.Slice(modes, func(i, j int) bool { return modes[i] < modes[j] })
	fmt.Printf("%-14s", "")
	for _, m := range modes {
		fmt.Printf("%12s", m)
	}
	fmt.Println()
	for _, env := range core.AdaptiveEnvironments() {
		row := make([]string, 0, len(modes))
		found := false
		for _, m := range modes {
			if c, err := sum.CellFor(env, m); err == nil {
				row = append(row, fmt.Sprintf("%12.3f", metric(c)))
				found = true
			} else {
				row = append(row, fmt.Sprintf("%12s", "-"))
			}
		}
		if found {
			fmt.Printf("%-14s%s\n", env, strings.Join(row, ""))
		}
	}
	fmt.Println()
}

func runFig13(sim *core.Simulator, cfg core.ExperimentConfig) error {
	cells, err := sim.RunOutcomes(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Figure 13: outcomes of the fuzzy controller system (%)")
	fmt.Printf("%-26s%10s%10s%10s%10s%10s\n", "config", "NoChange", "LowFreq", "Error", "Temp", "Power")
	for _, c := range cells {
		fmt.Printf("%-26s", c.Label)
		for o := 0; o < int(adapt.NumOutcomes); o++ {
			fmt.Printf("%10.1f", c.Fractions[o]*100)
		}
		fmt.Println()
	}
	return nil
}

func runTable2(sim *core.Simulator, cfg core.ExperimentConfig) error {
	rows, err := sim.RunTable2(cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table 2: |fuzzy - exhaustive| (absolute, and % of nominal)")
	fmt.Printf("%-12s%-12s%16s%16s%16s\n", "param", "env", "memory", "mixed", "logic")
	kinds := []floorplan.Kind{floorplan.Memory, floorplan.Mixed, floorplan.Logic}
	for _, r := range rows {
		fmt.Printf("%-12s%-12s", r.Param, r.Env)
		for _, k := range kinds {
			if pct, ok := r.PctErr[k]; ok {
				fmt.Printf("%9.0f (%3.1f%%)", r.AbsErr[k], pct)
			} else {
				fmt.Printf("%10.0f (  - )", r.AbsErr[k])
			}
		}
		fmt.Println()
	}
	return nil
}

func runAreas() error {
	fmt.Println("Figure 7(d): area overhead of the EVAL additions")
	for _, o := range floorplan.AreaOverheads() {
		fmt.Printf("  %-16s %5.1f%% of processor area\n", o.Source, o.Percent)
	}
	fmt.Printf("  %-16s %5.1f%% (paper: 10.6%%)\n", "Total", floorplan.TotalAreaOverheadPercent())
	return nil
}

func runFig1(sim *core.Simulator, chip int64) error {
	res, err := sim.Figure1(chip)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 1(a,b): dynamic path-delay densities (delay in nominal periods)")
	fmt.Println("delay,density_novar,density_var")
	for i := range res.DelayNoVar {
		fmt.Printf("%.3f,%.4g,%.4g\n", res.DelayNoVar[i].FRel, res.DelayNoVar[i].Y, res.DelayVar[i].Y)
	}
	fmt.Println("\n# Figure 1(c,d): stage and pipeline error rates")
	fmt.Println("frel,stage_pe,pipeline_pe")
	for i := range res.StagePE {
		fmt.Printf("%.3f,%.4g,%.4g\n", res.StagePE[i].FRel, res.StagePE[i].Y, res.PipelinePE[i].Y)
	}
	return nil
}

func runFig2(sim *core.Simulator, chip int64, app string) error {
	res, err := sim.Figure2(chip, app)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 2(a): Perf(f) and PE(f) under timing speculation")
	fmt.Println("frel,perf,pe")
	for i := range res.Perf {
		fmt.Printf("%.3f,%.4g,%.4g\n", res.Perf[i].FRel, res.Perf[i].Y, res.PE[i].Y)
	}
	fmt.Println("\n# Figure 2(b): tilt (FU replica)  (c): shift (queue resize)  (d): reshape (ASV)")
	fmt.Println("frel,tilt_before,tilt_after,shift_before,shift_after,reshape_before,reshape_after")
	for i := range res.TiltBefore {
		fmt.Printf("%.3f,%.4g,%.4g,%.4g,%.4g,%.4g,%.4g\n",
			res.TiltBefore[i].FRel, res.TiltBefore[i].Y, res.TiltAfter[i].Y,
			res.ShiftBefore[i].Y, res.ShiftAfter[i].Y,
			res.ReshapeBefore[i].Y, res.ReshapeAfter[i].Y)
	}
	return nil
}

func runFig4(sim *core.Simulator, chipSeed int64, appName string) error {
	app, err := workload.ByName(appName)
	if err != nil {
		return err
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		return err
	}
	c, err := sim.BuildCore(sim.Chip(chipSeed), core.TSASVQFU)
	if err != nil {
		return err
	}
	th := 60 + 273.15
	fuID := floorplan.IntALU
	if app.Class == workload.FP {
		fuID = floorplan.FPUnit
	}
	var fuIdx int
	for i := range c.Subs {
		if c.Subs[i].Sub.ID == fuID {
			fuIdx = i
		}
	}
	fNormal := c.FreqSolve(fuIdx, c.QueryFor(fuIdx, prof, th, tech.QueueFull, tech.FUNormal)).FMax
	fLow := c.FreqSolve(fuIdx, c.QueryFor(fuIdx, prof, th, tech.QueueFull, tech.FULowSlope)).FMax
	minRest := 99.0
	for i := range c.Subs {
		if i == fuIdx {
			continue
		}
		if f := c.FreqSolve(i, c.QueryFor(i, prof, th, tech.QueueFull, tech.FUNormal)).FMax; f < minRest {
			minRest = f
		}
	}
	fmt.Println("Figure 4: FU-replica enable decision")
	fmt.Printf("  f_normal   = %.3f\n  f_lowslope = %.3f\n  Min(f)rest = %.3f\n", fNormal, fLow, minRest)
	switch {
	case fNormal < minRest && fLow > fNormal:
		fmt.Println("  -> case (i)/(ii): FU is critical; enable LowSlope to maximize frequency")
	case fNormal < minRest:
		fmt.Println("  -> FU is critical but LowSlope does not help; keep Normal")
	default:
		fmt.Println("  -> case (iii): FU is not critical; enable Normal to save power")
	}
	return nil
}

func runFig8(sim *core.Simulator, chip int64, app string) error {
	for _, reshaped := range []bool{false, true} {
		res, err := sim.Figure8(chip, app, reshaped)
		if err != nil {
			return err
		}
		label := "TS"
		if reshaped {
			label = "TS+ASV+ABB"
		}
		fmt.Printf("# Figure 8 under %s: app=%s chip=%d; peak perfR=%.3f at fR=%.3f\n",
			label, res.App, res.ChipSeed, res.PeakPerf, res.PeakF)
		fmt.Print("frel,perfR")
		for _, ser := range res.Subsystem {
			fmt.Printf(",%s(%s)", ser.ID, ser.Kind)
		}
		fmt.Println()
		for i, p := range res.Perf {
			fmt.Printf("%.3f,%.4f", p.FRel, p.Y)
			for _, ser := range res.Subsystem {
				fmt.Printf(",%.4g", ser.Points[i].Y)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	return nil
}

func runFig9(sim *core.Simulator, chip int64, app string) error {
	pts, err := sim.Figure9(chip, app)
	if err != nil {
		return err
	}
	fmt.Println("# Figure 9: IntALU power x frequency -> (min PE, processor perfR)")
	fmt.Println("power_w,frel,pe,perfR")
	for _, p := range pts {
		fmt.Printf("%.2f,%.3f,%.4g,%.4f\n", p.PowerW, p.FRel, p.PE, p.PerfR)
	}
	return nil
}

// runRetime reproduces the §7 comparison: worst-case clocking vs dynamic
// retiming (ReCycle-style slack redistribution) vs EVAL's preferred
// environment, averaged over chips.
func runRetime(sim *core.Simulator, chips int, seed int64) error {
	cmp, err := sim.RunRetimeComparison(chips, seed, "gcc")
	if err != nil {
		return err
	}
	fmt.Printf("frequency relative to nominal, mean over %d chips (%s):\n", cmp.Chips, cmp.App)
	fmt.Printf("  worst-case clocking (Baseline)  %.3f\n", cmp.BaselineFRel)
	fmt.Printf("  dynamic retiming (ReCycle-like) %.3f  (+%.0f%%; paper: +10-20%%)\n",
		cmp.RetimedFRel, (cmp.RetimeGain()-1)*100)
	fmt.Printf("  EVAL preferred environment      %.3f  (+%.0f%%; paper: +56%%)\n",
		cmp.EVALFRel, (cmp.EVALGain()-1)*100)
	return nil
}

// runSchemes compares the error-tolerance architectures of §3.1: the same
// EVAL adaptation on top of a Diva checker, Razor-style stage checking, or
// a Paceline-style checker core.
func runSchemes(cfg core.ExperimentConfig, traceLen int) error {
	rows, err := core.RunSchemeComparison(cfg.Chips, cfg.SeedBase, "gcc", traceLen)
	if err != nil {
		return err
	}
	tb := report.NewTable("EVAL (TS+ASV, Exh-Dyn) on top of each error-tolerance scheme (gcc):",
		"scheme", "fRel", "perf", "power(W)", "PE")
	for _, r := range rows {
		tb.AddRow(r.Scheme.String(),
			fmt.Sprintf("%.3f", r.FRel), fmt.Sprintf("%.3f", r.Perf),
			fmt.Sprintf("%.1f", r.PowerW), fmt.Sprintf("%.2e", r.PE))
	}
	return tb.WriteText(os.Stdout)
}

// runCMP reproduces the §5 platform view: each die carries four cores that
// share one variation map. Without EVAL the die ships at its slowest
// core's safe frequency; with per-core adaptation every core runs at its
// own pace.
func runCMP(chips int, seed int64, instrument func(*core.Simulator) *core.Simulator) error {
	opts := core.DefaultOptions()
	gen, err := cmppkg.NewGenerator(opts.Varius)
	if err != nil {
		return err
	}
	sim, err := core.NewSimulator(opts)
	if err != nil {
		return err
	}
	instrument(sim)
	app, err := workload.ByName("gcc")
	if err != nil {
		return err
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		return err
	}
	vp := gen.Params()
	fmt.Printf("%-5s %28s %12s %14s\n", "die", "per-core fvar", "die clock", "EVAL per-core")
	var dieClock, evalMean []float64
	for d := 0; d < chips; d++ {
		die, err := gen.Chip(seed + int64(d))
		if err != nil {
			return err
		}
		var fvars, adapted []float64
		for c := 0; c < cmppkg.NumCores; c++ {
			fv, err := die.CoreFVar(c, vp)
			if err != nil {
				return err
			}
			fvars = append(fvars, fv)
			cpu, err := die.BuildCore(c, vp, core.TSASVQFU.Config(), opts.Checker, opts.Limits)
			if err != nil {
				return err
			}
			res, err := cpu.AdaptSteady(prof, adapt.Exhaustive{})
			if err != nil {
				return err
			}
			adapted = append(adapted, res.Point.FCore)
		}
		fmt.Printf("%-5d %5.3f %5.3f %5.3f %5.3f %12.3f %14.3f\n",
			d, fvars[0], fvars[1], fvars[2], fvars[3], mathx.Min(fvars), mathx.Mean(adapted))
		dieClock = append(dieClock, mathx.Min(fvars))
		evalMean = append(evalMean, mathx.Mean(adapted))
	}
	fmt.Printf("\nmean die clock (slowest core, no EVAL): %.3f x nominal\n", mathx.Mean(dieClock))
	fmt.Printf("mean per-core EVAL frequency:           %.3f x nominal (+%.0f%%)\n",
		mathx.Mean(evalMean), (mathx.Mean(evalMean)/mathx.Mean(dieClock)-1)*100)
	return nil
}

// runAblate sweeps the model's design choices and reports their effect on
// the worst-case-safe frequency and the per-subsystem ASV value.
func runAblate(sim *core.Simulator, chips int, seed int64, instrument func(*core.Simulator) *core.Simulator) error {
	// Variation-model sweeps: correlation range phi, the systematic-vs-
	// random split, and the die-to-die component.
	sweeps := []struct {
		title, param string
		values       []float64
		set          func(*varius.Params, float64)
	}{
		{"ablation: correlation range phi -> fvar across chips", "phi",
			[]float64{0.1, 0.3, 0.5, 0.9}, func(p *varius.Params, v float64) { p.Phi = v }},
		{"ablation: systematic fraction of Vt variance -> fvar", "sys frac",
			[]float64{0.2, 0.5, 0.8}, func(p *varius.Params, v float64) { p.SysFraction = v }},
		{"ablation: die-to-die sigma -> fvar spread", "d2d sigma/mu",
			[]float64{0, 0.03, 0.06}, func(p *varius.Params, v float64) { p.D2DSigmaRatio = v }},
	}
	for _, sw := range sweeps {
		tb := report.NewTable(sw.title, sw.param, "fvar mean", "fvar sd")
		for _, v := range sw.values {
			opts := core.DefaultOptions()
			sw.set(&opts.Varius, v)
			s2, err := core.NewSimulator(opts)
			if err != nil {
				return err
			}
			instrument(s2)
			var fv []float64
			for c := 0; c < chips; c++ {
				f, err := s2.ChipFVar(s2.Chip(seed + int64(c)))
				if err != nil {
					return err
				}
				fv = append(fv, f)
			}
			tb.AddRowF(3, v, mathx.Mean(fv), mathx.StdDev(fv))
		}
		if err := tb.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
	}

	// ASV domain granularity.
	app, err := workload.ByName("gcc")
	if err != nil {
		return err
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		return err
	}
	tb := report.NewTable("ablation: ASV domain granularity (fine grain buys power, not ceiling)",
		"domains", "frel", "power(W) at frel")
	var single, multi, pSingle, pMulti []float64
	for c := 0; c < chips; c++ {
		cpu, err := sim.BuildCore(sim.Chip(seed+int64(c)), core.TSASV)
		if err != nil {
			return err
		}
		th := 62.0 + 273.15
		fSingle := sim.SingleDomainFMax(cpu, prof, th)
		single = append(single, fSingle)
		m := 99.0
		for i := 0; i < cpu.N(); i++ {
			q := cpu.QueryFor(i, prof, th, tech.QueueFull, tech.FUNormal)
			if f := cpu.FreqSolve(i, q).FMax; f < m {
				m = f
			}
		}
		multi = append(multi, m)
		// Power at the common achievable frequency: one shared supply
		// (the best single level) vs per-subsystem minimum-power levels.
		fCommon := fSingle
		if m < fCommon {
			fCommon = m
		}
		// The lowest *shared* supply that still meets the common frequency
		// in every subsystem (ascending levels: take the first feasible).
		bestVdd := cpu.Config.VddLevels(1.0)[len(cpu.Config.VddLevels(1.0))-1]
		for _, vdd := range cpu.Config.VddLevels(1.0) {
			feasible := true
			for i := 0; i < cpu.N(); i++ {
				q := cpu.QueryFor(i, prof, th, tech.QueueFull, tech.FUNormal)
				if cpu.FreqSolveAt(i, q, []float64{vdd}, []float64{0}).FMax < fCommon {
					feasible = false
					break
				}
			}
			if feasible {
				bestVdd = vdd
				break
			}
		}
		n := cpu.N()
		opSingle := adapt.OperatingPoint{FCore: fCommon,
			VddV: make([]float64, n), VbbV: make([]float64, n)}
		for i := range opSingle.VddV {
			opSingle.VddV[i] = bestVdd
		}
		stS, err := cpu.Evaluate(opSingle, prof)
		if err != nil {
			return err
		}
		prop, err := cpu.Propose(prof, th, adapt.Exhaustive{})
		if err != nil {
			return err
		}
		opMulti := prop.Point.Clone()
		opMulti.FCore = fCommon
		stM, err := cpu.Evaluate(opMulti, prof)
		if err != nil {
			return err
		}
		pSingle = append(pSingle, stS.TotalW)
		pMulti = append(pMulti, stM.TotalW)
	}
	tb.AddRowF(3, 1, mathx.Mean(single), mathx.Mean(pSingle))
	tb.AddRowF(3, 15, mathx.Mean(multi), mathx.Mean(pMulti))
	if err := tb.WriteText(os.Stdout); err != nil {
		return err
	}
	fmt.Println()

	// PE budget sweep (§4.1's steepness claim).
	vp := varius.DefaultParams()
	gen, err := varius.NewGenerator(vp)
	if err != nil {
		return err
	}
	fp := sim.Floorplan()
	tb = report.NewTable("ablation: PE budget -> feasible frequency (Dcache, chip seed)",
		"pe budget", "fmax rel")
	sub, err := fp.ByID(floorplan.Dcache)
	if err != nil {
		return err
	}
	// Use vats via the adapt view to avoid re-deriving conditions.
	chip := gen.Chip(seed)
	stage, err := newDcacheStage(*sub, chip, vp)
	if err != nil {
		return err
	}
	for _, pe := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1} {
		tb.AddRowF(4, fmt.Sprintf("%.0e", pe), stage.FMaxForPE(pe))
	}
	return tb.WriteText(os.Stdout)
}

// newDcacheStage builds a frozen Dcache curve at the design corner for the
// PE-budget sweep.
func newDcacheStage(sub floorplan.Subsystem, chip *varius.ChipMaps, vp varius.Params) (*vats.Curve, error) {
	st, err := vats.NewStage(sub, chip, vp)
	if err != nil {
		return nil, err
	}
	return st.Eval(vats.Cond{VddV: vp.VddNomV, TK: vp.TOpRefK}, vats.IdentityVariant()), nil
}
