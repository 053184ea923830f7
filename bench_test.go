// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§5-6), plus ablations of the design choices called out in
// DESIGN.md. Expensive experiment benchmarks run at a laptop-scale budget
// (a few chips, an app subset); raise the constants below for paper-scale
// runs. Reproduced quantities are attached as benchmark metrics
// (ReportMetric) so `go test -bench` output doubles as the results table.
package repro_test

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/floorplan"
	"repro/internal/fuzzy"
	"repro/internal/grid"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/power"
	"repro/internal/retime"
	"repro/internal/tech"
	"repro/internal/thermal"
	"repro/internal/timeline"
	"repro/internal/varius"
	"repro/internal/vats"
	"repro/internal/workload"
)

// Benchmark experiment scale. The paper uses 100 chips and 26 apps.
const (
	benchChips    = 2
	benchSeed     = 1000
	benchExamples = 500
	benchTraceLen = 20000
)

var benchApps = []string{"gcc", "crafty", "mcf", "swim", "sixtrack", "art"}

func newBenchSim(b *testing.B) *core.Simulator {
	b.Helper()
	opts := core.DefaultOptions()
	opts.TraceLen = benchTraceLen
	sim, err := core.NewSimulator(opts)
	if err != nil {
		b.Fatal(err)
	}
	return sim
}

func benchConfig() core.ExperimentConfig {
	cfg := core.DefaultExperimentConfig()
	cfg.Chips = benchChips
	cfg.SeedBase = benchSeed
	cfg.TrainChips = 1
	cfg.Apps = benchApps
	cfg.Training.Examples = benchExamples
	return cfg
}

// BenchmarkFig1_PathDelayAndErrorCurves regenerates Figure 1: the dynamic
// path-delay distributions without/with variation and the stage/pipeline
// error-rate curves.
func BenchmarkFig1_PathDelayAndErrorCurves(b *testing.B) {
	sim := newBenchSim(b)
	var fvarGap float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Figure1(3)
		if err != nil {
			b.Fatal(err)
		}
		// The headline of Figure 1: variation forces a longer period.
		edge := func(pts []core.CurvePoint) float64 {
			e := 0.0
			for _, p := range pts {
				if p.Y > 1e-3 && p.FRel > e {
					e = p.FRel
				}
			}
			return e
		}
		fvarGap = edge(res.DelayVar) - edge(res.DelayNoVar)
	}
	b.ReportMetric(fvarGap, "Tvar-Tnom_periods")
}

// BenchmarkFig2_MitigationTaxonomy regenerates Figure 2: the Perf(f) peak
// under timing speculation and the tilt/shift/reshape before/after curves.
func BenchmarkFig2_MitigationTaxonomy(b *testing.B) {
	sim := newBenchSim(b)
	var peakF float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Figure2(3, "gcc")
		if err != nil {
			b.Fatal(err)
		}
		peak := 0
		for j, p := range res.Perf {
			if p.Y > res.Perf[peak].Y {
				peak = j
			}
		}
		peakF = res.Perf[peak].FRel
	}
	b.ReportMetric(peakF, "fopt_rel")
}

// BenchmarkFig4_FUDecision exercises the Figure 4 replica-enable logic.
func BenchmarkFig4_FUDecision(b *testing.B) {
	sim := newBenchSim(b)
	app, err := workload.ByName("crafty")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := sim.BuildCore(sim.Chip(3), core.TSASVQFU)
	if err != nil {
		b.Fatal(err)
	}
	var fuIdx int
	for i := range cpu.Subs {
		if cpu.Subs[i].Sub.ID == floorplan.IntALU {
			fuIdx = i
		}
	}
	th := 60 + 273.15
	b.ResetTimer()
	var gain float64
	for i := 0; i < b.N; i++ {
		fN := cpu.FreqSolve(fuIdx, cpu.QueryFor(fuIdx, prof, th, tech.QueueFull, tech.FUNormal)).FMax
		fL := cpu.FreqSolve(fuIdx, cpu.QueryFor(fuIdx, prof, th, tech.QueueFull, tech.FULowSlope)).FMax
		gain = fL - fN
	}
	b.ReportMetric(gain, "lowslope_fmax_gain")
}

// BenchmarkFig6_Timeline measures one full phase-boundary adaptation: the
// controller invocation plus retuning cycles of Figure 6.
func BenchmarkFig6_Timeline(b *testing.B) {
	sim := newBenchSim(b)
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := sim.BuildCore(sim.Chip(3), core.TSASVQFU)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var steps float64
	for i := 0; i < b.N; i++ {
		res, err := cpu.AdaptSteady(prof, adapt.Exhaustive{})
		if err != nil {
			b.Fatal(err)
		}
		steps = float64(res.Steps)
	}
	b.ReportMetric(steps, "retune_steps")
}

// BenchmarkFig8_SwimCurves regenerates the Figure 8 study: swim's
// per-subsystem error curves and performance curve, without and with
// per-subsystem ASV/ABB reshaping.
func BenchmarkFig8_SwimCurves(b *testing.B) {
	sim := newBenchSim(b)
	var plainPeak, reshapedPeak float64
	for i := 0; i < b.N; i++ {
		plain, err := sim.Figure8(3, "swim", false)
		if err != nil {
			b.Fatal(err)
		}
		reshaped, err := sim.Figure8(3, "swim", true)
		if err != nil {
			b.Fatal(err)
		}
		plainPeak, reshapedPeak = plain.PeakPerf, reshaped.PeakPerf
	}
	// Paper: TS peak PerfR ~0.92 at fR~0.91; reshaped peak ~1.00 at ~1.03.
	b.ReportMetric(plainPeak, "ts_peak_perfR")
	b.ReportMetric(reshapedPeak, "reshaped_peak_perfR")
}

// BenchmarkFig9_TradeoffSurface regenerates the Figure 9 power x error x
// frequency surface for the integer ALU.
func BenchmarkFig9_TradeoffSurface(b *testing.B) {
	sim := newBenchSim(b)
	var points float64
	for i := 0; i < b.N; i++ {
		pts, err := sim.Figure9(3, "swim")
		if err != nil {
			b.Fatal(err)
		}
		points = float64(len(pts))
	}
	b.ReportMetric(points, "surface_points")
}

// runSummaryOnce executes the Figures 10-12 experiment at bench scale.
func runSummaryOnce(b *testing.B, modes []core.Mode) *core.Summary {
	b.Helper()
	sim := newBenchSim(b)
	cfg := benchConfig()
	cfg.Modes = modes
	sum, err := sim.RunSummary(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sum
}

// BenchmarkFig10_RelativeFrequency regenerates Figure 10: the frequency of
// every environment and adaptation mode relative to NoVar. Paper anchors:
// Baseline 0.78; TS+ASV+Q+FU Fuzzy-Dyn 1.21 (=1.56x Baseline).
func BenchmarkFig10_RelativeFrequency(b *testing.B) {
	var sum *core.Summary
	for i := 0; i < b.N; i++ {
		sum = runSummaryOnce(b, []core.Mode{core.Static, core.FuzzyDyn, core.ExhDyn})
	}
	b.ReportMetric(sum.BaselineFRel, "baseline_frel")
	if c, err := sum.CellFor(core.TSASVQFU, core.FuzzyDyn); err == nil {
		b.ReportMetric(c.FRel, "preferred_fuzzy_frel")
		b.ReportMetric(c.FRel/sum.BaselineFRel, "gain_over_baseline")
	}
	if c, err := sum.CellFor(core.All, core.ExhDyn); err == nil {
		b.ReportMetric(c.FRel, "all_exh_frel")
	}
}

// BenchmarkFig11_RelativePerformance regenerates Figure 11. Paper anchors:
// preferred environment 1.14x NoVar = 1.40x Baseline.
func BenchmarkFig11_RelativePerformance(b *testing.B) {
	var sum *core.Summary
	for i := 0; i < b.N; i++ {
		sum = runSummaryOnce(b, []core.Mode{core.Static, core.FuzzyDyn, core.ExhDyn})
	}
	b.ReportMetric(sum.BaselinePerfR, "baseline_perfR")
	if c, err := sum.CellFor(core.TSASVQFU, core.FuzzyDyn); err == nil {
		b.ReportMetric(c.PerfR, "preferred_fuzzy_perfR")
		b.ReportMetric(c.PerfR/sum.BaselinePerfR, "gain_over_baseline")
	}
}

// BenchmarkFig12_Power regenerates Figure 12. Paper anchors: NoVar ~25 W,
// Baseline ~17 W, preferred Fuzzy-Dyn ~30 W (pinned at PMAX).
func BenchmarkFig12_Power(b *testing.B) {
	var sum *core.Summary
	for i := 0; i < b.N; i++ {
		sum = runSummaryOnce(b, []core.Mode{core.Static, core.FuzzyDyn, core.ExhDyn})
	}
	b.ReportMetric(sum.NoVarPowerW, "novar_W")
	b.ReportMetric(sum.BaselinePowerW, "baseline_W")
	if c, err := sum.CellFor(core.TSASVQFU, core.FuzzyDyn); err == nil {
		b.ReportMetric(c.PowerW, "preferred_fuzzy_W")
	}
}

// BenchmarkFig13_ControllerOutcomes regenerates Figure 13: the outcome mix
// of the fuzzy controller system across the 16-configuration grid, at the
// serial and 8-worker settings of the (config × chip) work queue. Paper
// anchor: NoChange+LowFreq account for >=50% in every bar.
func BenchmarkFig13_ControllerOutcomes(b *testing.B) {
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sim := newBenchSim(b)
			cfg := benchConfig()
			cfg.Chips = 1
			cfg.Apps = []string{"gcc", "swim"}
			cfg.Workers = workers
			var minGood float64
			for i := 0; i < b.N; i++ {
				cells, err := sim.RunOutcomes(cfg)
				if err != nil {
					b.Fatal(err)
				}
				minGood = 1.0
				for _, c := range cells {
					good := c.Fractions[adapt.OutcomeNoChange] + c.Fractions[adapt.OutcomeLowFreq]
					if good < minGood {
						minGood = good
					}
				}
			}
			b.ReportMetric(minGood, "min_nochange+lowfreq_frac")
		})
	}
}

// BenchmarkTrainFuzzySolver measures the §4.3.1 manufacturer-side training
// of one chip's full controller set — the wall-clock-dominant step of every
// experiment at paper scale — serially and fanned across 8 workers. The
// PE-fmax tables are warmed before timing so both settings measure example
// labeling and gradient-descent fits, not table construction; trained
// controllers are byte-identical across settings.
func BenchmarkTrainFuzzySolver(b *testing.B) {
	sim := newBenchSim(b)
	cpu, err := sim.BuildCore(sim.Chip(benchSeed), core.TSASVQFU)
	if err != nil {
		b.Fatal(err)
	}
	opts := adapt.DefaultTrainOptions()
	opts.Examples = benchExamples
	opts.Seed = benchSeed
	warm := opts
	warm.Examples = warm.Fuzzy.Rules
	if _, err := adapt.TrainFuzzySolver([]*adapt.Core{cpu}, warm); err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := opts
			o.Workers = workers
			b.ResetTimer()
			var controllers int
			for i := 0; i < b.N; i++ {
				s, err := adapt.TrainFuzzySolver([]*adapt.Core{cpu}, o)
				if err != nil {
					b.Fatal(err)
				}
				controllers = s.ControllerCount()
			}
			b.ReportMetric(float64(controllers), "controllers")
		})
	}
}

// BenchmarkTable2_FuzzyAccuracy regenerates Table 2: the mean difference
// between the fuzzy controllers' selections and Exhaustive. Paper anchors:
// frequency errors ~3-11% of nominal, Vdd errors ~1.4-2.4%.
func BenchmarkTable2_FuzzyAccuracy(b *testing.B) {
	sim := newBenchSim(b)
	cfg := benchConfig()
	cfg.Chips = 1
	var freqPct, vddPct float64
	for i := 0; i < b.N; i++ {
		rows, err := sim.RunTable2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		var fSum, vSum float64
		var fN, vN int
		for _, r := range rows {
			for _, v := range r.PctErr {
				if r.Param == "Freq (MHz)" {
					fSum += v
					fN++
				} else if r.Param == "Vdd (mV)" {
					vSum += v
					vN++
				}
			}
		}
		freqPct = fSum / float64(fN)
		vddPct = vSum / float64(vN)
	}
	b.ReportMetric(freqPct, "freq_err_pct")
	b.ReportMetric(vddPct, "vdd_err_pct")
}

// --- Ablations of the design choices DESIGN.md calls out. ---

// BenchmarkAblation_Phi sweeps the spatial-correlation range: shorter
// ranges decorrelate neighboring subsystems and change the worst-case-safe
// frequency spread across chips.
func BenchmarkAblation_Phi(b *testing.B) {
	var spread [3]float64
	phis := []float64{0.1, 0.5, 0.9}
	for i := 0; i < b.N; i++ {
		for pi, phi := range phis {
			opts := core.DefaultOptions()
			opts.Varius.Phi = phi
			sim, err := core.NewSimulator(opts)
			if err != nil {
				b.Fatal(err)
			}
			var fvars []float64
			for seed := int64(0); seed < 8; seed++ {
				fv, err := sim.ChipFVar(sim.Chip(seed))
				if err != nil {
					b.Fatal(err)
				}
				fvars = append(fvars, fv)
			}
			spread[pi] = mathx.StdDev(fvars)
		}
	}
	b.ReportMetric(spread[0], "fvar_sd_phi0.1")
	b.ReportMetric(spread[1], "fvar_sd_phi0.5")
	b.ReportMetric(spread[2], "fvar_sd_phi0.9")
}

// BenchmarkAblation_SigmaSplit varies how much of the Vt variance is
// systematic vs random.
func BenchmarkAblation_SigmaSplit(b *testing.B) {
	splits := []float64{0.2, 0.5, 0.8}
	var means [3]float64
	for i := 0; i < b.N; i++ {
		for si, frac := range splits {
			opts := core.DefaultOptions()
			opts.Varius.SysFraction = frac
			sim, err := core.NewSimulator(opts)
			if err != nil {
				b.Fatal(err)
			}
			var fvars []float64
			for seed := int64(0); seed < 8; seed++ {
				fv, err := sim.ChipFVar(sim.Chip(seed))
				if err != nil {
					b.Fatal(err)
				}
				fvars = append(fvars, fv)
			}
			means[si] = mathx.Mean(fvars)
		}
	}
	b.ReportMetric(means[0], "fvar_sys20")
	b.ReportMetric(means[1], "fvar_sys50")
	b.ReportMetric(means[2], "fvar_sys80")
}

// BenchmarkAblation_FuzzyRules sweeps the number of fuzzy rules, the
// accuracy-vs-footprint tradeoff behind the paper's choice of 25.
func BenchmarkAblation_FuzzyRules(b *testing.B) {
	gen := func(n int, seed int64) []fuzzy.Example {
		rng := mathx.NewRNG(seed)
		out := make([]fuzzy.Example, n)
		for i := range out {
			x := []float64{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)}
			out[i] = fuzzy.Example{X: x, Y: 0.5 + 0.3*x[0] - 0.25*x[1]*x[1] + 0.15*math.Sin(3*x[2])}
		}
		return out
	}
	train := gen(4000, 1)
	test := gen(500, 2)
	rules := []int{5, 25, 100}
	var maes [3]float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ri, r := range rules {
			cfg := fuzzy.DefaultTrainConfig()
			cfg.Rules = r
			c, err := fuzzy.Train(train, cfg)
			if err != nil {
				b.Fatal(err)
			}
			mae, err := c.MAE(test)
			if err != nil {
				b.Fatal(err)
			}
			maes[ri] = mae
		}
	}
	b.ReportMetric(maes[0], "mae_5rules")
	b.ReportMetric(maes[1], "mae_25rules")
	b.ReportMetric(maes[2], "mae_100rules")
}

// BenchmarkAblation_Retuning compares the frequency the controller proposal
// alone achieves with what retuning cycles add — the mechanism that makes
// fuzzy control safe (§6.3).
func BenchmarkAblation_Retuning(b *testing.B) {
	sim := newBenchSim(b)
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := sim.BuildCore(sim.Chip(3), core.TSASV)
	if err != nil {
		b.Fatal(err)
	}
	th := 62 + 273.15
	var before, after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prop, err := cpu.Propose(prof, th, adapt.Exhaustive{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := cpu.Retune(prop.Point, prof)
		if err != nil {
			b.Fatal(err)
		}
		before, after = prop.Point.FCore, res.Point.FCore
	}
	b.ReportMetric(before, "frel_proposed")
	b.ReportMetric(after, "frel_retuned")
}

// BenchmarkAblation_Domains compares a single chip-wide ASV domain with the
// paper's per-subsystem domains.
func BenchmarkAblation_Domains(b *testing.B) {
	sim := newBenchSim(b)
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := sim.BuildCore(sim.Chip(3), core.TSASV)
	if err != nil {
		b.Fatal(err)
	}
	th := 62 + 273.15
	var single, multi float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		single = sim.SingleDomainFMax(cpu, prof, th)
		multi = math.Inf(1)
		for s := 0; s < cpu.N(); s++ {
			q := cpu.QueryFor(s, prof, th, tech.QueueFull, tech.FUNormal)
			if f := cpu.FreqSolve(s, q).FMax; f < multi {
				multi = f
			}
		}
	}
	b.ReportMetric(single, "frel_1domain")
	b.ReportMetric(multi, "frel_15domains")
}

// BenchmarkAblation_PEMax sweeps the error budget: §4.1 claims the f range
// between PE=1e-4 and PE=1e-1 is minuscule (2-3%) because the curves are so
// steep.
func BenchmarkAblation_PEMax(b *testing.B) {
	vp := varius.DefaultParams()
	gen, err := varius.NewGenerator(vp)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := floorplan.Default(vp.CoreSide)
	if err != nil {
		b.Fatal(err)
	}
	chip := gen.Chip(3)
	sub, err := fp.ByID(floorplan.Dcache)
	if err != nil {
		b.Fatal(err)
	}
	stage, err := vats.NewStage(*sub, chip, vp)
	if err != nil {
		b.Fatal(err)
	}
	cond := vats.Cond{VddV: 1.0, TK: vp.TOpRefK}
	var span float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cv := stage.Eval(cond, vats.IdentityVariant())
		f4 := cv.FMaxForPE(1e-4)
		f1 := cv.FMaxForPE(1e-1)
		span = (f1 - f4) / f4
	}
	// Paper: 2-3%.
	b.ReportMetric(span*100, "pe_1e-4_to_1e-1_span_pct")
}

// BenchmarkCorePipeline measures the raw trace simulator, the substrate
// every profile is built on.
func BenchmarkCorePipeline(b *testing.B) {
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	trace := pipeline.GenerateTrace(app.Phases[0].Mix, 50000, mathx.NewRNG(1))
	cfg := pipeline.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Simulate(trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(trace)))
}

// BenchmarkCorePipelineReference measures the original array-of-structs
// kernel, the warm-path pair of BenchmarkCorePipeline: the ratio between
// the two is the SoA rewrite's speedup.
func BenchmarkCorePipelineReference(b *testing.B) {
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	trace := pipeline.GenerateTrace(app.Phases[0].Mix, 50000, mathx.NewRNG(1))
	cfg := pipeline.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.SimulateReference(trace, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(trace)))
}

// BenchmarkCoreSteady measures the thermal fixed point the adaptation
// engine solves at every evaluated operating point, in the two solver
// modes: warm (accelerated, scratch and starting temperatures reused
// across solves, as Evaluate runs it) and reference (the undamped
// original loop behind DisableAcceleration).
func BenchmarkCoreSteady(b *testing.B) {
	vp := varius.DefaultParams()
	fp, err := floorplan.Default(vp.CoreSide)
	if err != nil {
		b.Fatal(err)
	}
	pw, err := power.NewModel(fp, vp, power.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	m, err := thermal.NewModel(fp, vp, pw, thermal.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	ins := make([]thermal.SubsystemInput, fp.N())
	for i, sub := range fp.Subsystems {
		ins[i] = thermal.SubsystemInput{
			Index:  i,
			Vt0Eff: vp.VtMeanV,
			AlphaF: sub.TypicalAlpha,
			VddV:   vp.VddNomV,
			FRel:   1.0,
		}
	}
	for _, mode := range []struct {
		name      string
		reference bool
	}{{"warm", false}, {"reference", true}} {
		b.Run(mode.name, func(b *testing.B) {
			sv := thermal.NewSolver(m)
			sv.DisableAcceleration = mode.reference
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Alternate the operating point slightly so the warm path
				// re-solves (instead of converging instantly) the way
				// adjacent phase evaluations do.
				fRel := 1.0 + 0.02*float64(i%2)
				for j := range ins {
					ins[j].FRel = fRel
				}
				if _, err := sv.CoreSteady(ins, fRel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkChipGeneration measures variation-map synthesis (the per-chip
// Cholesky-correlated field sampling).
func BenchmarkChipGeneration(b *testing.B) {
	gen, err := varius.NewGenerator(varius.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = gen.Chip(int64(i))
	}
}

// BenchmarkFieldGeneratorSetup measures the one-time correlation-matrix
// factorization.
func BenchmarkFieldGeneratorSetup(b *testing.B) {
	g, err := grid.New(16, 16, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := grid.NewFieldGenerator(g, grid.Spherical(0.5)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFreqSolve measures one per-subsystem Freq-algorithm solve, the
// inner loop of every adaptation. Freq solves are not memoized, so after
// the first iteration builds the PE tables it reads, it times the
// best-first search over warm tables.
func BenchmarkFreqSolve(b *testing.B) {
	sim := newBenchSim(b)
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := sim.BuildCore(sim.Chip(3), core.TSASV)
	if err != nil {
		b.Fatal(err)
	}
	q := cpu.QueryFor(0, prof, 62+273.15, tech.QueueFull, tech.FUNormal)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = cpu.FreqSolve(0, q)
	}
}

// BenchmarkFreqSolveCold measures the best-first Freq search with every
// iteration querying a fresh heat-sink temperature, so no two iterations
// pose the same query.
func BenchmarkFreqSolveCold(b *testing.B) {
	sim := newBenchSim(b)
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	prof, err := sim.Profile(app, app.Phases[0])
	if err != nil {
		b.Fatal(err)
	}
	cpu, err := sim.BuildCore(sim.Chip(3), core.TSASV)
	if err != nil {
		b.Fatal(err)
	}
	cpu.FreqSolve(0, cpu.QueryFor(0, prof, 62+273.15, tech.QueueFull, tech.FUNormal))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := cpu.QueryFor(0, prof, 62+273.15+float64(i)*1e-6,
			tech.QueueFull, tech.FUNormal)
		_ = cpu.FreqSolve(0, q)
	}
}

// BenchmarkPEFMaxBatch measures the error-budget inversion at the heart
// of every dense PE-table column build, in its two forms: the
// certified-bracket replay over the whole budget grid (what the dense
// column builder uses) and the equivalent independent per-budget
// bisections.
func BenchmarkPEFMaxBatch(b *testing.B) {
	vp := varius.DefaultParams()
	fp, err := floorplan.Default(vp.CoreSide)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := varius.NewGenerator(vp)
	if err != nil {
		b.Fatal(err)
	}
	stage, err := vats.NewStage(fp.Subsystems[0], gen.Chip(5), vp)
	if err != nil {
		b.Fatal(err)
	}
	cv := stage.Eval(vats.Cond{VddV: vp.VddNomV, TK: 65 + 273.15}, vats.IdentityVariant())
	budgets := []float64{1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	out := make([]float64, len(budgets))
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cv.FMaxForPESet(budgets, out)
		}
	})
	b.Run("per_budget", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j, bud := range budgets {
				out[j] = cv.FMaxForPE(bud)
			}
		}
	})
}

// BenchmarkFuzzyPredict measures one deployed fuzzy-controller query — the
// operation the paper budgets ~6 us of controller time around.
func BenchmarkFuzzyPredict(b *testing.B) {
	rng := mathx.NewRNG(1)
	ex := make([]fuzzy.Example, 2000)
	for i := range ex {
		x := []float64{rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1),
			rng.Uniform(0, 1), rng.Uniform(0, 1), rng.Uniform(0, 1)}
		ex[i] = fuzzy.Example{X: x, Y: x[0] + x[5]}
	}
	c, err := fuzzy.Train(ex, fuzzy.DefaultTrainConfig())
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.2, 0.4, 0.6, 0.8, 0.5, 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Predict(x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRetimeBaseline reproduces the §7 comparison: dynamic retiming
// (ReCycle-style slack redistribution) gains 10-20% over worst-case
// clocking, versus EVAL's ~50%.
func BenchmarkRetimeBaseline(b *testing.B) {
	vp := varius.DefaultParams()
	gen, err := varius.NewGenerator(vp)
	if err != nil {
		b.Fatal(err)
	}
	fp, err := floorplan.Default(vp.CoreSide)
	if err != nil {
		b.Fatal(err)
	}
	var gain float64
	for i := 0; i < b.N; i++ {
		var gains []float64
		for seed := int64(0); seed < 6; seed++ {
			res, err := retime.Retime(fp, gen.Chip(seed), vp, retime.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			gains = append(gains, res.Gain())
		}
		gain = mathx.Mean(gains)
	}
	b.ReportMetric(gain, "retime_gain")
}

// BenchmarkCheckerSchemes compares the §3.1 error-tolerance architectures
// under the same EVAL adaptation.
func BenchmarkCheckerSchemes(b *testing.B) {
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var fDiva, fRazor float64
	for i := 0; i < b.N; i++ {
		for _, scheme := range checker.Schemes() {
			chk, err := checker.ForScheme(scheme)
			if err != nil {
				b.Fatal(err)
			}
			opts := core.DefaultOptions()
			opts.TraceLen = benchTraceLen
			opts.Checker = chk
			sim, err := core.NewSimulator(opts)
			if err != nil {
				b.Fatal(err)
			}
			prof, err := sim.Profile(app, app.Phases[0])
			if err != nil {
				b.Fatal(err)
			}
			cpu, err := sim.BuildCore(sim.Chip(3), core.TSASV)
			if err != nil {
				b.Fatal(err)
			}
			res, err := cpu.AdaptSteady(prof, adapt.Exhaustive{})
			if err != nil {
				b.Fatal(err)
			}
			switch scheme {
			case checker.SchemeDiva:
				fDiva = res.Point.FCore
			case checker.SchemeRazor:
				fRazor = res.Point.FCore
			}
		}
	}
	b.ReportMetric(fDiva, "frel_diva")
	b.ReportMetric(fRazor, "frel_razor")
}

// BenchmarkTimeline measures the Figure 6 controller-system simulation and
// reports the adaptation overhead it accounts.
func BenchmarkTimeline(b *testing.B) {
	sim := newBenchSim(b)
	cpu, err := sim.BuildCore(sim.Chip(3), core.TSASV)
	if err != nil {
		b.Fatal(err)
	}
	app, err := workload.ByName("gcc")
	if err != nil {
		b.Fatal(err)
	}
	var overhead, stable float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, sum, err := timeline.Run(sim, cpu, app, adapt.Exhaustive{}, timeline.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		overhead = sum.OverheadFrac
		stable = sum.StablePhaseFrac
	}
	b.ReportMetric(overhead*100, "overhead_pct")
	b.ReportMetric(stable*100, "stable_phase_pct")
}

// BenchmarkFleet measures the discrete-event simulation service end to
// end: a fixed chip population, closed-loop SubmitBatch calls (one batch
// in flight at a time, so scheduling latency is honest queue-free
// dispatch cost), exhaustive-adaptation run events cycling over the
// population's (chip, phase) units. Every unit of a chip runs on the
// chip's owner worker, so the 4 chips keep at most 4 workers busy.
// Warm replays every unit from a populated artifact store — the steady
// state of a long-running service — and after the untimed setup the
// chips' replay tables answer every timed batch. Cold has no store, and
// each timed batch first re-admits every chip (a leave, then a join), so
// the batch prepares each chip again and solves each (chip, phase) on a
// fresh core before its replay table answers the repeats.
// Throughput (events/s, run events only) and the p50/p99
// dispatch→pickup latency of run events are attached as metrics.
// `make bench-check-fleet` gates the workers=8 / workers=1 events/s
// ratios, each the median of five runs (warm >= 0.9, cold >= 0.5);
// TestSubmitBatchAllocs bounds the warm batch's allocations and bytes.
func BenchmarkFleet(b *testing.B) {
	const (
		fleetChips  = 4
		fleetPhases = 3
		batchEvents = 50
	)
	env := core.TSASV.String()
	mkBatch := func(at int64, n int) []fleet.Event {
		events := make([]fleet.Event, n)
		for i := range events {
			ph := i % fleetPhases
			events[i] = fleet.Event{
				At: at, Kind: fleet.KindRun, Chip: int64(i % fleetChips),
				Env: env, Mode: fleet.ModeExh, App: "gcc", Phase: &ph,
			}
		}
		return events
	}
	for _, cached := range []bool{true, false} {
		name := "warm"
		if !cached {
			name = "cold"
		}
		for _, workers := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				sim := newBenchSim(b)
				if cached {
					store, err := artifact.Open(b.TempDir(), artifact.Options{})
					if err != nil {
						b.Fatal(err)
					}
					defer store.Close()
					sim.SetArtifacts(store)
				}
				fl, err := fleet.New(sim, fleet.Config{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				defer fl.Close()
				// Untimed setup: join the population and touch every (chip,
				// phase) unit once, building the chip handles (and, when
				// cached, populating the store) outside the timed loop.
				joins := make([]fleet.Event, fleetChips)
				readmit := make([]fleet.Event, 0, 2*fleetChips)
				for c := range joins {
					joins[c] = fleet.Event{Kind: fleet.KindJoin, Chip: int64(c)}
					readmit = append(readmit, fleet.Event{Kind: fleet.KindLeave, Chip: int64(c)})
				}
				readmit = append(readmit, joins...)
				if err := fl.SubmitBatch(joins, nil); err != nil {
					b.Fatal(err)
				}
				if err := fl.SubmitBatch(mkBatch(0, fleetChips*fleetPhases), nil); err != nil {
					b.Fatal(err)
				}
				var sched obs.Histogram
				var emitErr string
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					events := mkBatch(int64(i+1), batchEvents)
					if !cached {
						// A leave frees the chip's entry (handle, cores, replay
						// table) and the join admits a fresh one, so with no
						// store the batch's units solve from scratch.
						events = append(readmit, events...)
					}
					err := fl.SubmitBatch(events, func(r fleet.Result) {
						if r.Status != fleet.StatusOK && emitErr == "" {
							emitErr = r.Err
						}
						if r.Kind == fleet.KindRun {
							sched.Observe(time.Duration(r.SchedMs * float64(time.Millisecond)))
						}
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				if emitErr != "" {
					b.Fatal(emitErr)
				}
				b.ReportMetric(float64(b.N*batchEvents)/b.Elapsed().Seconds(), "events/s")
				b.ReportMetric(float64(sched.Quantile(0.50))/1e6, "sched_p50_ms")
				b.ReportMetric(float64(sched.Quantile(0.99))/1e6, "sched_p99_ms")
			})
		}
	}
}
