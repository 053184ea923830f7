package core

import (
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/floorplan"
	"repro/internal/tech"
	"repro/internal/varius"
	"repro/internal/workload"
)

func newSim(t *testing.T) *Simulator {
	t.Helper()
	opts := DefaultOptions()
	opts.TraceLen = 20000 // keep tests fast
	s, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tinyConfig returns an experiment budget small enough for unit tests.
func tinyConfig() ExperimentConfig {
	cfg := DefaultExperimentConfig()
	cfg.Chips = 2
	cfg.TrainChips = 1
	cfg.Apps = []string{"gcc", "swim"}
	cfg.Training.Examples = 150
	cfg.Training.Fuzzy.Epochs = 1
	return cfg
}

func TestEnvironmentTable1(t *testing.T) {
	if NumEnvironments != 8 {
		t.Fatalf("Table 1 has 8 environments, got %d", int(NumEnvironments))
	}
	names := map[Environment]string{
		Baseline: "Baseline", TS: "TS", TSASV: "TS+ASV", TSASVABB: "TS+ASV+ABB",
		TSASVQ: "TS+ASV+Q", TSASVQFU: "TS+ASV+Q+FU", All: "ALL", NoVar: "NoVar",
	}
	for e, want := range names {
		if e.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(e), e.String(), want)
		}
	}
	if Environment(42).String() == "" || Mode(42).String() == "" {
		t.Error("out-of-range enums should still print")
	}
	// Technique monotonicity along the Table 1 progression.
	if Baseline.Config().TimingSpec || NoVar.Config().TimingSpec {
		t.Error("Baseline/NoVar have no checker")
	}
	if !TSASVQFU.Config().FUReplication || !TSASVQFU.Config().QueueResize || !TSASVQFU.Config().ASV {
		t.Error("preferred environment misses techniques")
	}
	if !All.Config().ABB {
		t.Error("ALL must include ABB")
	}
	if Baseline.Adaptive() || NoVar.Adaptive() || !TS.Adaptive() {
		t.Error("Adaptive() misclassifies")
	}
	if len(AdaptiveEnvironments()) != 6 {
		t.Error("six adaptive environments expected")
	}
}

func TestModeNames(t *testing.T) {
	if Static.String() != "Static" || FuzzyDyn.String() != "Fuzzy-Dyn" || ExhDyn.String() != "Exh-Dyn" {
		t.Error("mode names do not match the figures")
	}
}

func TestNewSimulatorValidation(t *testing.T) {
	bad := DefaultOptions()
	bad.Varius.Phi = 0
	if _, err := NewSimulator(bad); err == nil {
		t.Error("invalid variation params should be rejected")
	}
	bad2 := DefaultOptions()
	bad2.Limits.PEMax = 0
	if _, err := NewSimulator(bad2); err == nil {
		t.Error("invalid limits should be rejected")
	}
}

func TestProfileCaching(t *testing.T) {
	s := newSim(t)
	app, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Profile(app, app.Phases[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Profile(app, app.Phases[0])
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cached profile differs")
	}
}

func TestChipFVarBand(t *testing.T) {
	s := newSim(t)
	// NoVar chip meets nominal frequency.
	fv, err := s.ChipFVar(s.Chip(-1))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fv-1.0) > 0.01 {
		t.Errorf("NoVar fvar = %v, want ~1.0", fv)
	}
	// Variation chips land well below.
	fv, err = s.ChipFVar(s.Chip(3))
	if err != nil {
		t.Fatal(err)
	}
	if fv < 0.6 || fv > 0.95 {
		t.Errorf("chip fvar = %v, want in the variation band", fv)
	}
}

// runBaseline runs app on the Baseline environment: chip clocked at its
// worst-case-safe frequency, with no checker and no techniques.
func runBaseline(t *testing.T, s *Simulator, chip *varius.ChipMaps, app workload.App) AppRun {
	t.Helper()
	fvar, err := s.ChipFVar(chip)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.runFixed(app, fvar, Baseline, s.chipVt0Effs(chip))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func TestRunNoVarAndBaseline(t *testing.T) {
	s := newSim(t)
	app, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	nv, err := s.RunNoVar(app)
	if err != nil {
		t.Fatal(err)
	}
	if nv.FRel != 1.0 || nv.Perf <= 0 {
		t.Errorf("NoVar run = %+v", nv)
	}
	if nv.PowerW < 15 || nv.PowerW > 32 {
		t.Errorf("NoVar power = %v W, want ~25 W", nv.PowerW)
	}
	base := runBaseline(t, s, s.Chip(3), app)
	if base.FRel >= 1.0 {
		t.Errorf("Baseline frequency %v should be below nominal", base.FRel)
	}
	if base.Perf >= nv.Perf {
		t.Errorf("Baseline perf %v should trail NoVar %v", base.Perf, nv.Perf)
	}
	if base.PowerW >= nv.PowerW {
		t.Errorf("Baseline power %v should trail NoVar %v", base.PowerW, nv.PowerW)
	}
}

func TestRunDynamicBeatsBaseline(t *testing.T) {
	s := newSim(t)
	app, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	chip := s.Chip(5)
	core, err := s.BuildCore(chip, TSASVQFU)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.UnitAppRun(5, core, ExhDyn, adapt.Exhaustive{}, FleetUnit{App: app, Phase: -1})
	if err != nil {
		t.Fatal(err)
	}
	base := runBaseline(t, s, chip, app)
	if run.FRel <= base.FRel {
		t.Errorf("adapted frequency %v should beat baseline %v", run.FRel, base.FRel)
	}
	if run.Perf <= base.Perf {
		t.Errorf("adapted performance %v should beat baseline %v", run.Perf, base.Perf)
	}
	if run.PE > s.opts.Limits.PEMax*1.01 {
		t.Errorf("adapted PE %g above budget", run.PE)
	}
	if _, err := s.UnitAppRun(5, core, Static, adapt.Exhaustive{}, FleetUnit{App: app, Phase: -1}); err == nil {
		t.Error("a Static unit without an operating point must be rejected")
	}
}

func TestStaticConservativeAndBelowDynamic(t *testing.T) {
	s := newSim(t)
	apps := []workload.App{}
	for _, n := range []string{"gcc", "crafty", "swim"} {
		a, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	chip := s.Chip(7)
	core, err := s.BuildCore(chip, TSASV)
	if err != nil {
		t.Fatal(err)
	}
	point, err := s.StaticPoint(core, workload.Int, apps)
	if err != nil {
		t.Fatal(err)
	}
	gcc := apps[0]
	st, err := s.UnitAppRun(7, core, Static, nil, FleetUnit{App: gcc, Phase: -1, Static: &point})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := s.UnitAppRun(7, core, ExhDyn, adapt.Exhaustive{}, FleetUnit{App: gcc, Phase: -1})
	if err != nil {
		t.Fatal(err)
	}
	if st.FRel > dyn.FRel+1e-9 {
		t.Errorf("static frequency %v should not beat dynamic %v", st.FRel, dyn.FRel)
	}
	if st.FRel > point.FCore+1e-9 {
		t.Errorf("static run exceeded its fixed frequency: %v > %v", st.FRel, point.FCore)
	}
}

func TestRunSummarySmall(t *testing.T) {
	s := newSim(t)
	cfg := tinyConfig()
	cfg.Envs = []Environment{TS, TSASV}
	cfg.Modes = []Mode{Static, ExhDyn}
	sum, err := s.RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.BaselineFRel < 0.65 || sum.BaselineFRel > 0.9 {
		t.Errorf("Baseline fRel = %v, want ~0.78", sum.BaselineFRel)
	}
	if sum.BaselinePerfR <= 0 || sum.BaselinePerfR >= 1 {
		t.Errorf("Baseline PerfR = %v, want in (0,1)", sum.BaselinePerfR)
	}
	if len(sum.Cells) != 4 {
		t.Fatalf("expected 4 cells, got %d", len(sum.Cells))
	}
	tsDyn, err := sum.CellFor(TS, ExhDyn)
	if err != nil {
		t.Fatal(err)
	}
	asvDyn, err := sum.CellFor(TSASV, ExhDyn)
	if err != nil {
		t.Fatal(err)
	}
	// The Figure 10 ordering: Baseline < TS < TS+ASV under dynamic control.
	if tsDyn.FRel <= sum.BaselineFRel {
		t.Errorf("TS %v should beat Baseline %v", tsDyn.FRel, sum.BaselineFRel)
	}
	if asvDyn.FRel <= tsDyn.FRel {
		t.Errorf("TS+ASV %v should beat TS %v", asvDyn.FRel, tsDyn.FRel)
	}
	// Figure 11 ordering for performance.
	if asvDyn.PerfR <= sum.BaselinePerfR {
		t.Errorf("TS+ASV PerfR %v should beat Baseline %v", asvDyn.PerfR, sum.BaselinePerfR)
	}
	// Static does not beat dynamic.
	tsStatic, err := sum.CellFor(TS, Static)
	if err != nil {
		t.Fatal(err)
	}
	if tsStatic.FRel > tsDyn.FRel+1e-9 {
		t.Errorf("Static %v should not beat Exh-Dyn %v", tsStatic.FRel, tsDyn.FRel)
	}
	if _, err := sum.CellFor(All, ExhDyn); err == nil {
		t.Error("CellFor should fail for absent cells")
	}
}

func TestRunSummaryValidation(t *testing.T) {
	s := newSim(t)
	cfg := tinyConfig()
	cfg.Chips = 0
	if _, err := s.RunSummary(cfg); err == nil {
		t.Error("zero chips should error")
	}
	cfg = tinyConfig()
	cfg.Envs = []Environment{Baseline}
	if _, err := s.RunSummary(cfg); err == nil {
		t.Error("non-adaptive env in Envs should error")
	}
	cfg = tinyConfig()
	cfg.Apps = []string{"not-a-benchmark"}
	if _, err := s.RunSummary(cfg); err == nil {
		t.Error("unknown app should error")
	}
	// A repeated environment or mode would run its cells' apps twice and
	// list the cells twice in Summary.Cells.
	cfg = tinyConfig()
	cfg.Envs = []Environment{TSASV, TS, TSASV}
	if _, err := s.RunSummary(cfg); err == nil {
		t.Error("an environment listed twice should error")
	}
	cfg = tinyConfig()
	cfg.Modes = []Mode{ExhDyn, Static, ExhDyn}
	if _, err := s.RunSummary(cfg); err == nil {
		t.Error("a mode listed twice should error")
	}
}

func TestRunSummaryFuzzy(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training")
	}
	s := newSim(t)
	cfg := tinyConfig()
	cfg.Chips = 1
	cfg.Envs = []Environment{TSASV}
	cfg.Modes = []Mode{FuzzyDyn, ExhDyn}
	cfg.Training.Examples = 700
	cfg.Training.Fuzzy.Epochs = 3
	sum, err := s.RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fz, err := sum.CellFor(TSASV, FuzzyDyn)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := sum.CellFor(TSASV, ExhDyn)
	if err != nil {
		t.Fatal(err)
	}
	// §6.2: the difference between fuzzy and exhaustive is practically
	// negligible at the paper's training budget (10,000 examples); at this
	// test's tiny budget we only require the gap to stay within ~10%.
	if math.Abs(fz.FRel-ex.FRel) > 0.12 {
		t.Errorf("Fuzzy-Dyn %v far from Exh-Dyn %v", fz.FRel, ex.FRel)
	}
	// Outcome fractions must be a distribution.
	total := 0.0
	for _, fr := range fz.Outcomes {
		total += fr
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("outcome fractions sum to %v", total)
	}
}

func TestFigure1Curves(t *testing.T) {
	s := newSim(t)
	res, err := s.Figure1(3)
	if err != nil {
		t.Fatal(err)
	}
	// The with-variation distribution must be wider (spread further right)
	// than the no-variation one: find the rightmost tau with density above
	// a threshold.
	edge := func(pts []CurvePoint) float64 {
		e := 0.0
		for _, p := range pts {
			if p.Y > 1e-3 && p.FRel > e {
				e = p.FRel
			}
		}
		return e
	}
	if edge(res.DelayVar) <= edge(res.DelayNoVar) {
		t.Errorf("variation should spread the delay distribution right: %v vs %v",
			edge(res.DelayVar), edge(res.DelayNoVar))
	}
	// PE curves are nondecreasing.
	for i := 1; i < len(res.StagePE); i++ {
		if res.StagePE[i].Y < res.StagePE[i-1].Y-1e-15 {
			t.Fatal("stage PE curve not monotone")
		}
	}
	// The pipeline curve dominates the single stage (it sums stages).
	for i := range res.StagePE {
		if res.PipelinePE[i].Y < res.StagePE[i].Y-1e-15 {
			t.Fatal("pipeline PE below stage PE")
		}
	}
}

func TestFigure2Curves(t *testing.T) {
	s := newSim(t)
	res, err := s.Figure2(3, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	// (a): Perf(f) has an interior peak.
	peak, last := 0, len(res.Perf)-1
	for i, p := range res.Perf {
		if p.Y > res.Perf[peak].Y {
			peak = i
		}
	}
	if peak == 0 || peak == last {
		t.Errorf("Perf(f) peak at boundary (index %d)", peak)
	}
	// (b) tilt: at frequencies above the error onset (where the rate is
	// meaningful), the LowSlope curve is at or below the normal one. Below
	// the onset both rates are deep in the <1e-12 noise region, where the
	// wall-preserving widened distribution may sit trivially higher.
	for i := range res.TiltBefore {
		if res.TiltBefore[i].Y < 1e-10 {
			continue
		}
		if res.TiltAfter[i].Y > res.TiltBefore[i].Y*1.01+1e-18 {
			t.Errorf("tilt raised PE at f=%v", res.TiltBefore[i].FRel)
		}
	}
	// (c) shift: the downsized queue never errs more.
	for i := range res.ShiftBefore {
		if res.ShiftAfter[i].Y > res.ShiftBefore[i].Y+1e-15 {
			t.Errorf("shift raised PE at f=%v", res.ShiftBefore[i].FRel)
		}
	}
	// (d) reshape: boosting the slow stage lowers the combined PE in the
	// low-f region (curve bottom moves right).
	lowIdx := len(res.ReshapeBefore) / 3
	if res.ReshapeAfter[lowIdx].Y > res.ReshapeBefore[lowIdx].Y {
		t.Error("reshape did not improve the curve bottom")
	}
}

func TestFigure8Shapes(t *testing.T) {
	s := newSim(t)
	plain, err := s.Figure8(3, "swim", false)
	if err != nil {
		t.Fatal(err)
	}
	reshaped, err := s.Figure8(3, "swim", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Subsystem) != s.fp.N() {
		t.Fatalf("expected %d subsystem curves", s.fp.N())
	}
	// §6.1: reshaping moves the performance peak right and up (Point A).
	if reshaped.PeakF <= plain.PeakF {
		t.Errorf("reshaped peak f %v should exceed plain %v", reshaped.PeakF, plain.PeakF)
	}
	if reshaped.PeakPerf < plain.PeakPerf {
		t.Errorf("reshaped peak perf %v should be >= plain %v", reshaped.PeakPerf, plain.PeakPerf)
	}
	// Memory subsystems have steeper error onsets than logic ones: compare
	// the frequency span between PE=1e-8 and PE=1e-2.
	span := func(ser SubsystemSeries) float64 {
		fLo, fHi := -1.0, -1.0
		for _, p := range ser.Points {
			if fLo < 0 && p.Y > 1e-8 {
				fLo = p.FRel
			}
			if fHi < 0 && p.Y > 1e-2 {
				fHi = p.FRel
			}
		}
		if fLo < 0 || fHi < 0 {
			return math.NaN()
		}
		return fHi - fLo
	}
	var memSpan, logicSpan []float64
	for _, ser := range plain.Subsystem {
		sp := span(ser)
		if math.IsNaN(sp) {
			continue
		}
		switch ser.Kind {
		case floorplan.Memory:
			memSpan = append(memSpan, sp)
		case floorplan.Logic:
			logicSpan = append(logicSpan, sp)
		}
	}
	if len(memSpan) == 0 || len(logicSpan) == 0 {
		t.Skip("not enough curves crossed both thresholds on this chip")
	}
	if mean(memSpan) >= mean(logicSpan) {
		t.Errorf("memory onset span %v should be steeper (smaller) than logic %v",
			mean(memSpan), mean(logicSpan))
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func TestFigure9Surface(t *testing.T) {
	s := newSim(t)
	pts, err := s.Figure9(3, "swim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("empty surface")
	}
	// Tradeability: at fixed f, more power never means more errors; at
	// fixed power, higher f never means fewer errors.
	byF := map[float64][]SurfacePoint{}
	byP := map[float64][]SurfacePoint{}
	for _, p := range pts {
		byF[p.FRel] = append(byF[p.FRel], p)
		byP[p.PowerW] = append(byP[p.PowerW], p)
	}
	for f, list := range byF {
		for i := 1; i < len(list); i++ {
			if list[i].PowerW > list[i-1].PowerW && list[i].PE > list[i-1].PE*1.001+1e-18 {
				t.Errorf("at f=%v, PE rose with power budget", f)
			}
		}
	}
	for p, list := range byP {
		for i := 1; i < len(list); i++ {
			if list[i].FRel > list[i-1].FRel && list[i].PE < list[i-1].PE*0.999-1e-18 {
				t.Errorf("at P=%v, PE fell with frequency", p)
			}
		}
	}
}

func TestSingleDomainAblation(t *testing.T) {
	s := newSim(t)
	app, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	prof, err := s.Profile(app, app.Phases[0])
	if err != nil {
		t.Fatal(err)
	}
	core, err := s.BuildCore(s.Chip(3), TSASV)
	if err != nil {
		t.Fatal(err)
	}
	th := 60 + 273.15
	single := s.SingleDomainFMax(core, prof, th)
	// Per-subsystem domains at the same abstraction level: the minimum of
	// the independent per-subsystem frequency ceilings.
	multi := math.Inf(1)
	for i := 0; i < core.N(); i++ {
		q := core.QueryFor(i, prof, th, tech.QueueFull, tech.FUNormal)
		if f := core.FreqSolve(i, q).FMax; f < multi {
			multi = f
		}
	}
	if single > multi+1e-9 {
		t.Errorf("single ASV domain (%v) cannot beat per-subsystem domains (%v)", single, multi)
	}
	if single <= 0 {
		t.Error("single-domain fmax must be positive")
	}
}

func TestTable2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training")
	}
	s := newSim(t)
	cfg := tinyConfig()
	cfg.Chips = 1
	cfg.Training.Examples = 200
	rows, err := s.RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 4 freq rows + 2 Vdd rows + 2 Vbb rows.
	if len(rows) != 8 {
		t.Fatalf("Table 2 has %d rows, want 8", len(rows))
	}
	for _, r := range rows {
		for k, v := range r.AbsErr {
			if v < 0 || math.IsNaN(v) {
				t.Errorf("%s/%s %v error = %v", r.Param, r.Env, k, v)
			}
		}
		if r.Param == "Freq (MHz)" {
			for k, v := range r.PctErr {
				if v > 25 {
					t.Errorf("%s/%s %v frequency error %v%% implausibly large", r.Param, r.Env, k, v)
				}
			}
		}
	}
}

func TestFigure13Configs(t *testing.T) {
	cells := Figure13Configs()
	if len(cells) != 16 {
		t.Fatalf("Figure 13 has 16 bars, got %d", len(cells))
	}
	for _, c := range cells {
		if err := c.Config.Validate(); err != nil {
			t.Errorf("%s: %v", c.Label, err)
		}
		if !c.Config.TimingSpec {
			t.Errorf("%s lacks timing speculation", c.Label)
		}
	}
}

func TestEnvOfConfigRoundTrip(t *testing.T) {
	for _, env := range AdaptiveEnvironments() {
		got, err := envOfConfig(env.Config())
		if err != nil {
			t.Errorf("envOfConfig(%v.Config()): %v", env, err)
		}
		if got != env {
			t.Errorf("envOfConfig(%v.Config()) = %v", env, got)
		}
	}
}

func TestEnvOfConfigRejectsUnknown(t *testing.T) {
	// Outside Table 1 (e.g. the Figure 13 TS+ABB grid, or nonsense combos)
	// there is no environment name; mapping must fail loudly instead of
	// silently reporting TS.
	bad := []tech.Config{
		{TimingSpec: true, ABB: true},
		{TimingSpec: true, FUReplication: true},
		{TimingSpec: true, ABB: true, QueueResize: true, FUReplication: true},
		{},
	}
	for _, cfg := range bad {
		if _, err := envOfConfig(cfg); err == nil {
			t.Errorf("envOfConfig(%+v) accepted a non-Table-1 config", cfg)
		}
	}
}

func TestConservativeProfileDominates(t *testing.T) {
	s := newSim(t)
	apps := []workload.App{}
	for _, n := range []string{"gcc", "crafty"} {
		a, err := workload.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	worst, err := s.conservativeProfile(workload.Int, apps)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range apps {
		for _, ph := range app.Phases {
			p, err := s.Profile(app, ph)
			if err != nil {
				t.Fatal(err)
			}
			if p.CPICompFull > worst.CPICompFull+1e-12 || p.Mr > worst.Mr+1e-12 {
				t.Errorf("conservative profile does not dominate %s/%d", app.Name, ph.Index)
			}
			for i := range p.Activity {
				if p.Activity[i] > worst.Activity[i]+1e-12 {
					t.Errorf("activity %d not dominated for %s/%d", i, app.Name, ph.Index)
				}
			}
		}
	}
	if _, err := s.conservativeProfile(workload.FP, apps); err == nil {
		t.Error("no FP apps should error")
	}
}

func TestOutcomesConfigGridIsValid(t *testing.T) {
	// The Figure 13 grid includes technique sets (e.g. TS+ABB with queue
	// resizing) that are not Table 1 environments; they must still be
	// legal configurations.
	for _, c := range Figure13Configs() {
		cfg := tech.Config{
			TimingSpec:    c.Config.TimingSpec,
			ASV:           c.Config.ASV,
			ABB:           c.Config.ABB,
			QueueResize:   c.Config.QueueResize,
			FUReplication: c.Config.FUReplication,
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", c.Label, err)
		}
	}
}

func TestRunRetimeComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chip comparison")
	}
	s := newSim(t)
	cmp, err := s.RunRetimeComparison(2, 1000, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	// The §7 sandwich with gains in the published bands.
	if !(cmp.BaselineFRel < cmp.RetimedFRel && cmp.RetimedFRel < cmp.EVALFRel) {
		t.Errorf("ordering violated: %+v", cmp)
	}
	if g := cmp.RetimeGain(); g < 1.03 || g > 1.3 {
		t.Errorf("retiming gain %v outside the plausible band", g)
	}
	if g := cmp.EVALGain(); g < 1.25 {
		t.Errorf("EVAL gain %v implausibly small", g)
	}
	if _, err := s.RunRetimeComparison(0, 1, "gcc"); err == nil {
		t.Error("zero chips should error")
	}
	if _, err := s.RunRetimeComparison(1, 1, "doom"); err == nil {
		t.Error("unknown app should error")
	}
}

func TestRunSchemeComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scheme comparison")
	}
	rows, err := RunSchemeComparison(1, 1000, "gcc", 15000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d schemes, want 3", len(rows))
	}
	for _, r := range rows {
		if r.FRel < 0.8 || r.FRel > 1.4 {
			t.Errorf("%v: fRel %v implausible", r.Scheme, r.FRel)
		}
		if r.PE > 1e-4*1.01 {
			t.Errorf("%v: PE %g above budget", r.Scheme, r.PE)
		}
		if r.PowerW <= 0 || r.Perf <= 0 {
			t.Errorf("%v: degenerate metrics %+v", r.Scheme, r)
		}
	}
	if _, err := RunSchemeComparison(0, 1, "gcc", 1000); err == nil {
		t.Error("zero chips should error")
	}
}
