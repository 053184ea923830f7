package pipeline

import (
	"math"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/mathx"
	"repro/internal/tech"
	"repro/internal/workload"
)

func simpleMix() workload.Mix {
	return workload.Mix{
		LoadFrac: 0.25, StoreFrac: 0.1, BranchFrac: 0.12,
		FPFrac: 0.0, DepDistMean: 2.5,
		BranchMispredictRate: 0.06,
		L1MissRate:           0.03, L2MissRate: 0.002, MemOverlap: 0.3,
	}
}

func TestGenerateTraceMix(t *testing.T) {
	rng := mathx.NewRNG(1)
	mix := simpleMix()
	const n = 100000
	trace := GenerateTrace(mix, n, rng)
	if len(trace) != n {
		t.Fatalf("trace length %d", len(trace))
	}
	var loads, stores, branches, l2 int
	for _, in := range trace {
		switch in.Op {
		case OpLoad:
			loads++
		case OpStore:
			stores++
		case OpBranch:
			branches++
		}
		if in.L2Miss {
			l2++
		}
		if in.Dep1 < 1 {
			t.Fatal("Dep1 must be >= 1")
		}
	}
	if math.Abs(float64(loads)/n-mix.LoadFrac) > 0.01 {
		t.Errorf("load fraction = %v, want %v", float64(loads)/n, mix.LoadFrac)
	}
	if math.Abs(float64(stores)/n-mix.StoreFrac) > 0.01 {
		t.Errorf("store fraction = %v", float64(stores)/n)
	}
	if math.Abs(float64(branches)/n-mix.BranchFrac) > 0.01 {
		t.Errorf("branch fraction = %v", float64(branches)/n)
	}
	if math.Abs(float64(l2)/n-mix.L2MissRate) > 0.001 {
		t.Errorf("L2 miss rate = %v, want %v", float64(l2)/n, mix.L2MissRate)
	}
}

func TestSimulateBasics(t *testing.T) {
	rng := mathx.NewRNG(2)
	trace := GenerateTrace(simpleMix(), 20000, rng)
	res, err := Simulate(trace, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.CPI < 0.34 {
		t.Errorf("CPI %v below the 3-wide dispatch bound", res.CPI)
	}
	if res.CPI > 10 {
		t.Errorf("CPI %v implausibly high for this mix", res.CPI)
	}
	if res.Instructions != 20000 {
		t.Errorf("instruction count %d", res.Instructions)
	}
	// Every subsystem sees some activity on an int trace except possibly
	// the unused FP side.
	for id := floorplan.ID(0); id < floorplan.NumSubsystems; id++ {
		a := res.Activity[id]
		if a < 0 || a > 3 {
			t.Errorf("%v activity = %v out of range", id, a)
		}
	}
	if res.Activity[floorplan.IntALU] <= 0 || res.Activity[floorplan.Dcache] <= 0 {
		t.Error("int trace must exercise IntALU and Dcache")
	}
}

func TestSimulateValidation(t *testing.T) {
	if _, err := Simulate(nil, DefaultConfig()); err == nil {
		t.Error("empty trace should error")
	}
	bad := DefaultConfig()
	bad.IntQEntries = 1
	if _, err := Simulate(make([]Instr, 10), bad); err == nil {
		t.Error("tiny queue should be rejected")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	trace := GenerateTrace(simpleMix(), 5000, mathx.NewRNG(3))
	a, _ := Simulate(trace, DefaultConfig())
	b, _ := Simulate(trace, DefaultConfig())
	if a.Cycles != b.Cycles || a.CPI != b.CPI {
		t.Error("simulation not deterministic")
	}
}

func TestMoreILPMeansLowerCPI(t *testing.T) {
	lowILP := simpleMix()
	lowILP.DepDistMean = 1.3
	highILP := simpleMix()
	highILP.DepDistMean = 6
	a, _ := Simulate(GenerateTrace(lowILP, 20000, mathx.NewRNG(4)), DefaultConfig())
	b, _ := Simulate(GenerateTrace(highILP, 20000, mathx.NewRNG(4)), DefaultConfig())
	if b.CPI >= a.CPI {
		t.Errorf("more ILP should lower CPI: %v vs %v", b.CPI, a.CPI)
	}
}

func TestMispredictionsHurt(t *testing.T) {
	good := simpleMix()
	good.BranchMispredictRate = 0.001
	bad := simpleMix()
	bad.BranchMispredictRate = 0.15
	a, _ := Simulate(GenerateTrace(good, 20000, mathx.NewRNG(5)), DefaultConfig())
	b, _ := Simulate(GenerateTrace(bad, 20000, mathx.NewRNG(5)), DefaultConfig())
	if b.CPI <= a.CPI {
		t.Errorf("mispredictions should raise CPI: %v vs %v", b.CPI, a.CPI)
	}
}

func TestL2MissesHurtAndSquashHelps(t *testing.T) {
	mem := simpleMix()
	mem.L2MissRate = 0.03
	trace := GenerateTrace(mem, 20000, mathx.NewRNG(6))
	full, _ := Simulate(trace, DefaultConfig())
	cfg := DefaultConfig()
	cfg.SquashL2Misses = true
	squashed, _ := Simulate(trace, cfg)
	if squashed.CPI >= full.CPI {
		t.Errorf("squashing L2 misses should lower CPI: %v vs %v", squashed.CPI, full.CPI)
	}
	if full.CPI-squashed.CPI < 0.5 {
		t.Errorf("memory-bound trace should lose > 0.5 CPI to misses, got %v",
			full.CPI-squashed.CPI)
	}
}

func TestSmallerQueueNeverHelps(t *testing.T) {
	// Memory-bound mixes put pressure on the queue; the 3/4 configuration
	// must not lower CPI.
	mem := simpleMix()
	mem.L2MissRate = 0.02
	trace := GenerateTrace(mem, 20000, mathx.NewRNG(7))
	full, _ := Simulate(trace, DefaultConfig())
	small := DefaultConfig()
	small.IntQEntries = 51
	sres, _ := Simulate(trace, small)
	if sres.CPI < full.CPI-1e-9 {
		t.Errorf("smaller queue lowered CPI: %v vs %v", sres.CPI, full.CPI)
	}
}

func TestFPTraceExercisesFPSide(t *testing.T) {
	fpMix := workload.Mix{
		LoadFrac: 0.3, StoreFrac: 0.1, BranchFrac: 0.04,
		FPFrac: 0.6, DepDistMean: 4,
		BranchMispredictRate: 0.01,
		L1MissRate:           0.05, L2MissRate: 0.01, MemOverlap: 0.5,
	}
	res, _ := Simulate(GenerateTrace(fpMix, 20000, mathx.NewRNG(8)), DefaultConfig())
	if res.Activity[floorplan.FPUnit] <= 0.05 {
		t.Errorf("FP trace barely exercises FPUnit: %v", res.Activity[floorplan.FPUnit])
	}
	if res.Activity[floorplan.FPUnit] <= res.Activity[floorplan.IntALU]*0.5 {
		t.Errorf("FP trace should load the FP unit: fp=%v int=%v",
			res.Activity[floorplan.FPUnit], res.Activity[floorplan.IntALU])
	}
}

func TestBuildProfile(t *testing.T) {
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	p, err := BuildProfile(app, app.Phases[0], 30000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if p.AppName != "swim" || p.Class != workload.FP {
		t.Errorf("profile identity wrong: %+v", p)
	}
	if p.CPICompFull <= 0.3 || p.CPICompFull > 6 {
		t.Errorf("CPIcomp = %v implausible", p.CPICompFull)
	}
	if p.CPICompSmall < p.CPICompFull {
		t.Errorf("3/4-queue CPIcomp %v below full %v", p.CPICompSmall, p.CPICompFull)
	}
	if p.Mr <= 0.005 {
		t.Errorf("swim should miss in L2: mr = %v", p.Mr)
	}
	if p.MpNomCycles <= 0 || p.MpNomCycles > MemCycles {
		t.Errorf("mp = %v cycles out of range", p.MpNomCycles)
	}
	if p.CPIComp(tech.QueueFull) != p.CPICompFull ||
		p.CPIComp(tech.QueueThreeQuarter) != p.CPICompSmall {
		t.Error("CPIComp accessor wrong")
	}
}

// TestBuildProfileSmallQueueRounding is the counterexample BuildProfile's
// remaining clamp exists for. On swim's phase 3 at 6000 instructions,
// with the seed internal/core derives for that phase, the 3/4 FP queue
// costs no cycles at all, yet rSmall.CPI - mr*mpNom rounds one ulp below
// rComp.CPI. No monotonicity property fails, so the profile is built, and
// the clamp reports the small queue's CPIcomp equal to the full one's.
func TestBuildProfileSmallQueueRounding(t *testing.T) {
	app, err := workload.ByName("swim")
	if err != nil {
		t.Fatal(err)
	}
	const n, seed = 6000, -1471056194233477973
	ph := app.Phases[3]
	trace := GenerateTrace(ph.Mix, n, mathx.NewRNG(seed))
	full := DefaultConfig()
	small, squash := full, full
	small.FPQEntries = int(float64(full.FPQEntries) * tech.QueueSmallFrac)
	squash.SquashL2Misses = true
	var r [3]Result
	for i, cfg := range []Config{full, small, squash} {
		if r[i], err = Simulate(trace, cfg); err != nil {
			t.Fatal(err)
		}
	}
	mr := r[0].L2MissesPerInstr
	if r[1].Cycles != r[0].Cycles || mr == 0 {
		t.Fatalf("small queue %d cycles, full %d, mr %v: not the rounding case", r[1].Cycles, r[0].Cycles, mr)
	}
	if unclamped := r[1].CPI - mr*((r[0].CPI-r[2].CPI)/mr); !(unclamped < r[2].CPI) {
		t.Fatalf("unclamped small-queue CPIcomp %v is not below %v: not the rounding case", unclamped, r[2].CPI)
	}
	p, err := BuildProfile(app, ph, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	if p.CPICompSmall != p.CPICompFull {
		t.Errorf("CPIcomp small %v, full %v; want them equal", p.CPICompSmall, p.CPICompFull)
	}
}

func TestBuildProfileDeterministic(t *testing.T) {
	app, _ := workload.ByName("gzip")
	a, err := BuildProfile(app, app.Phases[0], 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildProfile(app, app.Phases[0], 20000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("profiles differ across identical builds")
	}
}

func TestPerfEquation5(t *testing.T) {
	in := PerfInputs{
		FRel:           1.0,
		CPIComp:        1.0,
		Mr:             0.01,
		MpNomCycles:    100,
		PE:             0,
		RecoveryCycles: 15,
	}
	perf := Perf(in)
	want := 1.0 / (1.0 + 0.01*100*1.0)
	if math.Abs(perf-want) > 1e-12 {
		t.Errorf("Perf = %v, want %v", perf, want)
	}
	// Errors cost performance.
	in.PE = 1e-2
	if Perf(in) >= perf {
		t.Error("errors should cost performance")
	}
	// Degenerate frequency.
	in.FRel = 0
	if Perf(in) != 0 {
		t.Error("Perf at f=0 must be 0")
	}
}

func TestPerfPeaksThenFalls(t *testing.T) {
	// With a PE(f) that explodes past some frequency, Perf(f) must rise,
	// peak, and dive — the Figure 2(a) shape.
	peAt := func(f float64) float64 {
		if f < 1.0 {
			return 0
		}
		return math.Pow(f-1.0, 3) * 10 // rapid onset past f=1
	}
	var perfs []float64
	for f := 0.8; f < 1.3; f += 0.01 {
		perfs = append(perfs, Perf(PerfInputs{
			FRel: f, CPIComp: 1.2, Mr: 0.005, MpNomCycles: 80,
			PE: peAt(f), RecoveryCycles: 15,
		}))
	}
	peak := 0
	for i, p := range perfs {
		if p > perfs[peak] {
			peak = i
		}
	}
	if peak == 0 || peak == len(perfs)-1 {
		t.Fatalf("no interior performance peak (peak index %d)", peak)
	}
	if perfs[len(perfs)-1] >= perfs[peak]*0.95 {
		t.Error("performance should fall sharply past the peak")
	}
}

func TestPerfMpScalesWithFrequency(t *testing.T) {
	// Memory-bound work gains little from frequency: mp grows with f.
	lo := Perf(PerfInputs{FRel: 1.0, CPIComp: 0.8, Mr: 0.03, MpNomCycles: 120, RecoveryCycles: 15})
	hi := Perf(PerfInputs{FRel: 1.2, CPIComp: 0.8, Mr: 0.03, MpNomCycles: 120, RecoveryCycles: 15})
	gain := hi / lo
	if gain > 1.1 {
		t.Errorf("memory-bound frequency gain %v should be well below 1.2x", gain)
	}
	if gain <= 1.0 {
		t.Errorf("some gain expected, got %v", gain)
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A trace with heavy store-then-load reuse should see forwarding, and
	// forwarded loads must make it no slower than the same trace without
	// address reuse.
	mix := simpleMix()
	trace := GenerateTrace(mix, 30000, mathx.NewRNG(21))
	res, err := Simulate(trace, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ForwardedLoadFrac <= 0.05 {
		t.Errorf("forwarded-load fraction = %v, expected some forwarding", res.ForwardedLoadFrac)
	}
	if res.ForwardedLoadFrac > 0.6 {
		t.Errorf("forwarded-load fraction = %v implausibly high", res.ForwardedLoadFrac)
	}
	// Break the reuse: give every load a unique address.
	broken := append([]Instr(nil), trace...)
	next := uint16(1)
	for i := range broken {
		if broken[i].Op == OpLoad {
			broken[i].Addr = next
			next += 2 // never matches store addresses (stores keep theirs)
		}
	}
	res2, err := Simulate(broken, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res2.ForwardedLoadFrac > res.ForwardedLoadFrac {
		t.Error("breaking reuse should reduce forwarding")
	}
}

func TestQueueOccupancyStats(t *testing.T) {
	// With this greedy front end the issue queue runs near-full whenever
	// issue is the bottleneck; occupancy must respect capacity and shrink
	// with the 3/4 configuration (the pressure that makes resizing cost
	// CPI).
	trace := GenerateTrace(simpleMix(), 20000, mathx.NewRNG(22))
	full, err := Simulate(trace, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	small := DefaultConfig()
	small.IntQEntries = 51
	sres, err := Simulate(trace, small)
	if err != nil {
		t.Fatal(err)
	}
	if full.IntQOccupancyMean < 0 || full.IntQOccupancyMean > float64(tech.IntQueueEntries) {
		t.Errorf("occupancy %v out of range", full.IntQOccupancyMean)
	}
	if sres.IntQOccupancyMean > 51 {
		t.Errorf("3/4-queue occupancy %v exceeds its capacity", sres.IntQOccupancyMean)
	}
	if sres.IntQOccupancyMean >= full.IntQOccupancyMean {
		t.Errorf("downsizing should lower mean occupancy: %v vs %v",
			sres.IntQOccupancyMean, full.IntQOccupancyMean)
	}
}

// TestSimulateScratchReuse: a pooled scratch must not leak state between
// calls. A short trace simulated before and after a much longer one (which
// leaves large dirty buffers and a populated store map in the pool) must
// produce identical results, including against a fresh-pool baseline on a
// differently-shaped FP-heavy trace.
func TestSimulateScratchReuse(t *testing.T) {
	fpMix := simpleMix()
	fpMix.FPFrac = 0.6
	short := GenerateTrace(simpleMix(), 2000, mathx.NewRNG(7))
	long := GenerateTrace(fpMix, 40000, mathx.NewRNG(8))
	cfg := DefaultConfig()

	before, err := Simulate(short, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(long, cfg); err != nil {
		t.Fatal(err)
	}
	after, err := Simulate(short, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Fatalf("scratch reuse changed results:\n before %+v\n after  %+v", before, after)
	}
}

// TestSimulateAllocs pins the allocation budget of a steady-state Simulate
// call. The pooled scratch cut it from 54 allocs per 50k-instruction trace
// to ~0; the assertion keeps the regression from creeping back.
func TestSimulateAllocs(t *testing.T) {
	trace := GenerateTrace(simpleMix(), 50000, mathx.NewRNG(1))
	cfg := DefaultConfig()
	// Warm the pool so the measured iterations reuse scratch.
	if _, err := Simulate(trace, cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Simulate(trace, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 10 {
		t.Fatalf("Simulate allocates %.1f times per call, want <= 10", allocs)
	}
}
