// Command evalbench is the repository benchmark. It runs one named
// workload against the EVAL reproduction from outside — through the
// public API of internal/core, internal/artifact, and internal/fleet, and
// over HTTP against a child cmd/evalserve process — checks every output
// against an oracle, and prints the metrics as one JSON object on the
// last line of stdout.
//
// Usage (normally through run.sh, which builds this harness and evalserve
// from the checkout first):
//
//	evalbench --workload fig-cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 traces every other
// operation, writes the ledger to .bench_build/ledger-<workload>-<seed>.json,
// and prints the per-layer metrics derived from that file. See README.md for the workloads,
// metrics, and how to read a ledger.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/obs"
)

// traceLen is the phase-profile length every workload simulates, the one
// the bench_test.go experiments use.
const traceLen = 20000

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     bool
	root      string // checkout root
	evalserve string // built evalserve binary
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last stdout line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runEnv records where a result came from.
type runEnv struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Commit     string `json:"commit"`
	Dirty      *bool  `json:"dirty"` // null outside a git checkout
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
	Start      string `json:"start"`
}

// workloads maps each name to its runner.
var workloads = map[string]func(*bench) error{
	"fig-cold":     runFigCold,
	"fig-warm":     runFigWarm,
	"serve-replay": runServeReplay,
	"serve-cold":   runServeCold,
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fig-cold, fig-warm, serve-replay, serve-cold")
	flag.Int64Var(&o.seed, "seed", 0, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	flag.StringVar(&o.root, "root", ".", "checkout root (work files go under <root>/.bench_build)")
	flag.StringVar(&o.evalserve, "evalserve", "", "evalserve binary (serve workloads)")
	flag.Parse()
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "evalbench: need --workload (fig-cold|fig-warm|serve-replay|serve-cold), --seconds >= 1, --trace 0|1")
		os.Exit(2)
	}
	if err := mainErr(o, run); err != nil {
		fmt.Fprintln(os.Stderr, "evalbench:", err)
		os.Exit(1)
	}
}

func mainErr(o options, run func(*bench) error) error {
	out := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(out, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	b := newBench(o, work)
	if err := run(b); err != nil {
		return err
	}
	if o.trace {
		path := filepath.Join(out, fmt.Sprintf("ledger-%s-%d.json", o.workload, o.seed))
		if err := b.led.write(path); err != nil {
			return err
		}
		led, err := readLedger(path)
		if err != nil {
			return err
		}
		b.metrics = perLayer(led)
		printLedgerSummary(path, led)
	}
	return b.print()
}

// bench is one run's shared state: options, the failure ledger behind
// attempted/failed, the collected metrics, and (traced runs) the ledger.
type bench struct {
	opts    options
	work    string
	env     runEnv
	workers int

	attempted, failed int64
	failures          []string

	metrics  map[string]metric
	children []*server // every evalserve started, for CPU accounting

	// Traced runs: the ledger, the harness's span tracer, and the obs
	// registry attached to in-process systems under test.
	led *ledger
	tr  *obs.Tracer
	reg *obs.Registry
}

func newBench(o options, work string) *bench {
	workers := runtime.NumCPU()
	b := &bench{opts: o, work: work, workers: workers, metrics: make(map[string]metric)}
	b.env = runEnv{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Workers: workers,
		Start: time.Now().UTC().Format(time.RFC3339),
	}
	b.env.Commit, b.env.Dirty = gitState(o.root)
	if o.trace {
		b.led = &ledger{Env: b.env}
		b.tr = obs.NewTracer()
		b.reg = obs.NewRegistry()
	}
	return b
}

// traced reports whether operation i (an experiment, or a client's
// request) of the run is traced: every other one in a traced run, so the
// untraced operations interleaved with them give the tracing overhead
// without a warm-up bias between halves.
func (b *bench) traced(i int) bool { return b.opts.trace && i%2 == 1 }

// gitState reads the checkout's commit and dirty flag; a checkout that is
// not a git repository reports "unknown" and a null flag.
func gitState(root string) (string, *bool) {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown", nil
	}
	st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return strings.TrimSpace(string(out)), nil
	}
	dirty := len(bytes.TrimSpace(st)) > 0
	return strings.TrimSpace(string(out)), &dirty
}

// account adds n attempted operations of which failed failed; msg
// describes the failure (the first few are printed).
func (b *bench) account(n, failed int64, msg string) {
	b.attempted += n
	b.failed += failed
	if failed > 0 && len(b.failures) < 8 {
		b.failures = append(b.failures, msg)
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// keepMeasuring reports whether a measurement loop that started at start
// and has done reps repetitions should run another: until the window is
// spent, and at least minReps times so a median exists.
func keepMeasuring(start time.Time, window time.Duration, reps, minReps int) bool {
	return reps < minReps || time.Since(start) < window
}

// Set-up sampling. A set-up that takes setupBatchS or more is timed once
// per sample, three times. A cheap one (fig-cold's NewSimulator takes ~6 ms,
// mostly allocation) is timed in batches of consecutive set-ups that
// together take at least setupBatchS of wall time, and a sample is the
// batch's mean: a single few-millisecond set-up straight after a
// collection either catches or misses a GC cycle, which moved its median
// by ~30% between sets of runs, while a batch spreads the collector's
// work evenly over its set-ups.
const (
	setupSamples = 3
	setupBatchS  = 0.2
	setupTotalS  = 1.0 // cheap set-ups: take samples until about this much is spent
)

// setupPlan returns how many set-ups each sample batches and how many
// samples to take, given the wall seconds one set-up took.
func setupPlan(wall float64) (batch, samples int) {
	if wall <= 0 || wall >= setupBatchS {
		return 1, setupSamples
	}
	batch = int(setupBatchS/wall) + 1
	samples = max(setupSamples, int(setupTotalS/(float64(batch)*wall)))
	return batch, samples
}

// setupTimes repeats fn — one full workload set-up — and returns one
// sample per batch (see setupPlan): the CPU seconds one set-up charged to
// the harness and the evalserve processes, averaged over the batch. A
// first, probing set-up sizes the batches; it counts as a sample only
// when batches hold one set-up. Only the last set-up's state is kept; fn
// is told whether it is the last so earlier ones tear down what they
// built.
func (b *bench) setupTimes(fn func(last bool) error) ([]float64, error) {
	timed := func(n int, last bool) (cpu, wall float64, err error) {
		runtime.GC() // every batch starts from the same heap state
		c0, err := b.cpu()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(last && i == n-1); err != nil {
				return 0, 0, err
			}
		}
		wall = time.Since(t0).Seconds() / float64(n)
		c1, err := b.cpu()
		return (c1 - c0).Seconds() / float64(n), wall, err
	}
	first, firstWall, err := timed(1, false)
	if err != nil {
		return nil, err
	}
	batch, samples := setupPlan(firstWall)
	var ds, walls []float64
	if batch == 1 {
		ds, walls = []float64{first}, []float64{firstWall}
	}
	for len(ds) < samples {
		d, w, err := timed(batch, len(ds) == samples-1)
		if err != nil {
			return nil, err
		}
		ds, walls = append(ds, d), append(walls, w)
	}
	fmt.Printf("# setup samples=%d batch=%d cpu median=%.5fs wall median=%.5fs\n", samples, batch, median(ds), median(walls))
	return ds, nil
}

// print writes the human-readable lines and the result object, which
// must be the last stdout line.
func (b *bench) print() error {
	env, err := json.Marshal(b.env)
	if err != nil {
		return err
	}
	fmt.Printf("# env %s\n", env)
	for _, f := range b.failures {
		fmt.Printf("# failure: %s\n", f)
	}
	if b.attempted == 0 {
		return errors.New("no operation attempted")
	}
	fmt.Printf("# error_rate %.6f (%d failed / %d attempted)\n",
		float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	out, err := json.Marshal(report{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// vmHWM reads a process's peak resident set in MB from /proc.
func vmHWM(pid string) (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/" + pid + "/status")
}
