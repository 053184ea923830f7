package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
)

// The fig workloads run the Figures 10–12 experiment (RunSummary) over
// the bench_test.go application set, all six adaptive environments, and
// all three modes, but on one chip with 100 training examples instead of
// bench_test.go's two chips and 500 examples: one cold experiment then
// takes ~4 s instead of ~13 s on a 2-CPU host, so a run holds three of
// them and reports a median. The seed picks the chip.
var benchApps = []string{"gcc", "crafty", "mcf", "swim", "sixtrack", "art"}

const (
	figChips    = 1
	figExamples = 100
	// figChipBase is bench_test.go's SeedBase: seed 0 runs its first chip.
	figChipBase = 1000
	// figMinReps is the fewest experiments a run measures.
	figMinReps = 3
)

func figConfig(seed int64, workers int) core.ExperimentConfig {
	cfg := core.DefaultExperimentConfig()
	cfg.Chips = figChips
	cfg.SeedBase = figChipBase + floorMod(seed, 1_000_000)
	cfg.TrainChips = 1
	cfg.Apps = benchApps
	cfg.Training.Examples = figExamples
	cfg.Workers = workers
	return cfg
}

// figCells is how many (chip, env, mode, app) results one experiment
// produces: the work behind its events_per_s.
func figCells() int {
	return figChips * len(core.AdaptiveEnvironments()) * int(core.NumModes) * len(benchApps)
}

func floorMod(a, m int64) int64 { return ((a % m) + m) % m }

func newSim() (*core.Simulator, error) {
	opts := core.DefaultOptions()
	opts.TraceLen = traceLen
	return core.NewSimulator(opts)
}

// opStat is one measured operation's cost: wall time, the CPU time
// charged to the system under test, and (traced) the bytes it allocated.
type opStat struct {
	wall, cpu time.Duration
	alloc     uint64
}

// experiment runs one Figures 10–12 experiment on sim against the store
// at dir and returns the summary and the cost of the timed region, from
// artifact.Open through Store.Close. reg and parent may be nil
// (untraced); allocation is only read when traced.
func experiment(sim *core.Simulator, dir string, cfg core.ExperimentConfig, reg *obs.Registry, parent *obs.Span) (*core.Summary, opStat, error) {
	sim.SetObs(reg)
	var ms0, ms1 runtime.MemStats
	if parent != nil {
		runtime.ReadMemStats(&ms0)
	}
	c0, err := procCPU("self")
	if err != nil {
		return nil, opStat{}, err
	}
	t0 := time.Now()
	sp := parent.Child(spanOpen)
	store, err := artifact.Open(dir, artifact.Options{Obs: reg})
	sp.End()
	if err != nil {
		return nil, opStat{}, err
	}
	sim.SetArtifacts(store)
	sp = parent.Child(spanRunSummary)
	sum, err := sim.RunSummary(cfg)
	sp.End()
	sp = parent.Child(spanClose)
	store.Close()
	sp.End()
	st := opStat{wall: time.Since(t0)}
	c1, cerr := procCPU("self")
	if cerr != nil {
		return nil, opStat{}, cerr
	}
	st.cpu = c1 - c0
	if parent != nil {
		runtime.ReadMemStats(&ms1)
		st.alloc = ms1.TotalAlloc - ms0.TotalAlloc
	}
	return sum, st, err
}

// digest is the SHA-256 of the summary's canonical rendering: its JSON
// encoding, which spells every float in its shortest exact form.
func digest(sum *core.Summary) string {
	data, err := json.Marshal(sum)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])
}

// figOracle checks every summary of a run against the first one and,
// for seeds with a recorded digest, against the record.
type figOracle struct {
	b     *bench
	seed  int64
	first string
}

// check accounts one experiment: it fails if err is set or its digest
// differs from the run's first or the recorded one.
func (o *figOracle) check(what string, sum *core.Summary, err error) {
	if err != nil {
		o.b.account(1, 1, fmt.Sprintf("%s: %v", what, err))
		return
	}
	d := digest(sum)
	if o.first == "" {
		o.first = d
		fmt.Printf("# digest seed=%d %s\n", o.seed, d)
	}
	switch rec, ok := recordedDigests[o.seed]; {
	case d != o.first:
		o.b.account(1, 1, fmt.Sprintf("%s: summary digest %s differs from the run's first %s", what, d[:12], o.first[:12]))
	case ok && d != rec:
		o.b.account(1, 1, fmt.Sprintf("%s: summary digest %s differs from the recorded %s", what, d[:12], rec[:12]))
	default:
		o.b.account(1, 0, "")
	}
}

// figRep is one measured experiment, traced under root with reg when
// those are set.
type figRep func(reg *obs.Registry, root *obs.Span) (*core.Summary, opStat, error)

// measureFig runs experiments until the window is spent and records the
// end-to-end metrics, or (traced) fills the ledger from the traced half
// of them.
func (b *bench) measureFig(oracle *figOracle, rep figRep) error {
	window := time.Duration(b.opts.seconds) * time.Second
	minReps := figMinReps
	if b.opts.trace {
		minReps = 4 // two of each kind
	}
	var wall, cpu, traced []float64
	var alloc uint64
	var last *core.Summary
	for start := time.Now(); keepMeasuring(start, window, len(wall)+len(traced), minReps); {
		i := len(wall) + len(traced)
		on := b.traced(i)
		runtime.GC() // no experiment pays for its predecessor's garbage
		var reg *obs.Registry
		var root *obs.Span
		if on {
			reg, root = b.reg, b.tr.Start(spanRep)
		}
		sum, st, err := rep(reg, root)
		root.End()
		oracle.check(fmt.Sprintf("experiment %d", i+1), sum, err)
		if err != nil {
			return err
		}
		if on {
			traced = append(traced, ms(st.wall))
			alloc += st.alloc
		} else {
			wall = append(wall, ms(st.wall))
			cpu = append(cpu, ms(st.cpu))
		}
		last = sum
	}
	wallEvents := ratio(float64(figCells())*1e3, median(wall))
	if !b.opts.trace {
		b.setOpMetrics(cpu, wall, wallEvents)
	} else {
		b.led.Reps = len(traced)
		b.led.Ops = len(traced)
		b.led.AllocBytes = float64(alloc)
		b.led.WallOpsMs = wall
		b.led.WallEventsPerS = wallEvents
		b.led.TracedP50Ms = median(traced)
		b.led.Registry = snapshotRows(b.reg)
		b.led.PaperDevPct = paperDevPct(last)
		if err := b.led.setSpans(b.tr); err != nil {
			return err
		}
	}
	rss, err := vmHWM("self")
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MB")
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// setOpMetrics records the end-to-end cost metric — the median CPU time
// per operation — and prints the wall-clock figures beside it.
func (b *bench) setOpMetrics(cpuMs, wallMs []float64, wallEventsPerS float64) {
	b.set("cpu_ms_per_op", median(cpuMs), "ms")
	t := tail(wallMs, 0.99)
	fmt.Printf("# ops n=%d cpu p50=%.3fms; wall p50=%.3fms tail=p%.1f %.3fms events/s=%.2f\n",
		t.N, median(cpuMs), median(wallMs), 100*t.Q, t.Value, wallEventsPerS)
}

func (b *bench) setSetup(ds []float64) {
	b.set("setup_s", median(ds), "s")
}

func (b *bench) freshDir(name string) (string, error) {
	return os.MkdirTemp(b.work, name+"-")
}

// runFigCold: every experiment starts from a freshly opened empty store
// and pays for its queued writes in Store.Close. Set-up is building the
// Simulator's models (NewSimulator); each experiment gets a fresh one,
// so no memo carries over. After each timed experiment an untimed warm
// replay on the same store must reproduce the summary (cold = warm).
func runFigCold(b *bench) error {
	cfg := figConfig(b.opts.seed, b.workers)
	ds, err := b.setupTimes(func(bool) error { _, err := newSim(); return err })
	if err != nil {
		return err
	}
	b.setSetup(ds)
	oracle := &figOracle{b: b, seed: b.opts.seed}
	return b.measureFig(oracle, func(reg *obs.Registry, root *obs.Span) (*core.Summary, opStat, error) {
		sp := root.Child(spanNewSimulator)
		sim, err := newSim()
		sp.End()
		if err != nil {
			return nil, opStat{}, err
		}
		dir, err := b.freshDir("store")
		if err != nil {
			return nil, opStat{}, err
		}
		defer os.RemoveAll(dir)
		sum, st, err := experiment(sim, dir, cfg, reg, root)
		if err != nil {
			return nil, opStat{}, err
		}
		warmSim, err := newSim()
		if err != nil {
			return nil, opStat{}, err
		}
		warm, _, err := experiment(warmSim, dir, cfg, nil, nil)
		oracle.check("warm replay of a cold experiment", warm, err)
		return sum, st, err
	})
}

// runFigWarm: set-up populates a store with one cold experiment; every
// measured experiment then gets a fresh Simulator (untimed) and a fresh
// artifact.Open of that store, so the artifact read path answers the
// whole experiment. Each summary must equal the cold one.
func runFigWarm(b *bench) error {
	cfg := figConfig(b.opts.seed, b.workers)
	oracle := &figOracle{b: b, seed: b.opts.seed}
	var dir string
	ds, err := b.setupTimes(func(last bool) error {
		d, err := b.freshDir("store")
		if err != nil {
			return err
		}
		sim, err := newSim()
		if err != nil {
			return err
		}
		sum, _, err := experiment(sim, d, cfg, nil, nil)
		oracle.check("cold populate", sum, err)
		if err != nil {
			return err
		}
		if !last {
			return os.RemoveAll(d)
		}
		dir = d
		return nil
	})
	if err != nil {
		return err
	}
	b.setSetup(ds)
	return b.measureFig(oracle, func(reg *obs.Registry, root *obs.Span) (*core.Summary, opStat, error) {
		sp := root.Child(spanNewSimulator)
		sim, err := newSim()
		sp.End()
		if err != nil {
			return nil, opStat{}, err
		}
		return experiment(sim, dir, cfg, reg, root)
	})
}

// paperAnchors are the Figures 10–12 rows of EXPERIMENTS.md "Headline
// anchors". The model is not validated against silicon, so the
// deviation is from the paper's figures, not an error against hardware.
var paperAnchors = []struct {
	name  string
	paper float64
	get   func(*core.Summary) float64
}{
	{"Fig10 Baseline f_rel", 0.78, func(s *core.Summary) float64 { return s.BaselineFRel }},
	{"Fig10 ALL Exh-Dyn f_rel", 1.22, func(s *core.Summary) float64 { return cell(s, core.All, core.ExhDyn).FRel }},
	{"Fig10 TS+ASV+Q+FU Exh-Dyn f_rel", 1.21, func(s *core.Summary) float64 { return cell(s, core.TSASVQFU, core.ExhDyn).FRel }},
	{"Fig10 best dynamic f gain over Baseline", 1.56, func(s *core.Summary) float64 {
		return cell(s, core.All, core.ExhDyn).FRel / s.BaselineFRel
	}},
	{"Fig11 best dynamic perf vs NoVar", 1.14, bestDynamicPerf},
	{"Fig11 best dynamic perf gain over Baseline", 1.40, func(s *core.Summary) float64 {
		return bestDynamicPerf(s) / s.BaselinePerfR
	}},
	{"Fig12 Baseline power W", 17, func(s *core.Summary) float64 { return s.BaselinePowerW }},
	{"Fig12 NoVar power W", 25, func(s *core.Summary) float64 { return s.NoVarPowerW }},
}

func cell(s *core.Summary, env core.Environment, mode core.Mode) core.Cell {
	c, _ := s.CellFor(env, mode)
	return c
}

func bestDynamicPerf(s *core.Summary) float64 {
	best := 0.0
	for _, c := range s.Cells {
		if c.Mode != core.Static {
			best = math.Max(best, c.PerfR)
		}
	}
	return best
}

// paperDevPct is the mean absolute deviation of the anchors from the
// paper's values, in percent of the paper value.
func paperDevPct(s *core.Summary) float64 {
	if s == nil {
		return 0
	}
	total := 0.0
	for _, a := range paperAnchors {
		total += math.Abs(a.get(s)-a.paper) / a.paper
	}
	return 100 * total / float64(len(paperAnchors))
}
