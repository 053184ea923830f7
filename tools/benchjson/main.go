// Command benchjson runs the adaptation-engine benchmark trajectory and
// writes the results to a JSON file, so successive commits can be compared
// point for point without re-parsing `go test -bench` text.
//
// Two passes keep the wall clock sane: the microbenchmarks run at the
// default benchtime for stable ns/op, while the end-to-end experiments —
// the Figure 10 reproduction and the serial-vs-parallel training and
// Figure 13 pairs (tens of seconds per op) — run exactly once.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

const (
	fastPattern = "^(BenchmarkFreqSolve|BenchmarkFreqSolveCold|BenchmarkChipGeneration|BenchmarkCorePipeline|BenchmarkCorePipelineReference|BenchmarkCoreSteady|BenchmarkPEFMaxBatch)$"
	slowPattern = "^(BenchmarkFig10_RelativeFrequency|BenchmarkFig10_ArtifactCache|BenchmarkFig13_ControllerOutcomes|BenchmarkTrainFuzzySolver)$"
	// The cold fleet rows are recorded single-shot like the other slow
	// benchmarks; the warm rows are recorded at fleetCheckIterations so
	// the checked-in baseline measures exactly what the -check-fleet gate
	// re-measures (a 1x warm row is dominated by first-iteration warmup
	// and too noisy to gate against at 20%).
	fleetColdPattern = "^BenchmarkFleet$/^cold$"
)

// warmBenchName and coldBenchName are the headline numbers the
// -check-warm and -check-cold gates compare against the checked-in
// trajectory.
const (
	warmBenchName = "BenchmarkFig10_ArtifactCache/warm"
	coldBenchName = "BenchmarkFig10_ArtifactCache/cold"
	// steadyBenchName is the hot-loop allocation canary: the warm gate also
	// fails if its allocs/op regress (the steady-state thermal solve must
	// stay allocation-free apart from its single result).
	steadyBenchName = "BenchmarkCoreSteady/warm"
)

// fleetBenchName is the serving-path headline the -check-fleet gate pins:
// single-core, warm-cache event throughput of the fleet service. Besides
// the relative ns/op check, the gate enforces the absolute service
// floors, the multi-worker parity floor, and the bytes/allocs budgets
// below, none of which machine-scale normalization applies to.
const (
	fleetBenchName       = "BenchmarkFleet/warm/workers=1"
	fleetParityBenchName = "BenchmarkFleet/warm/workers=8"
	fleetWarmPattern     = "^BenchmarkFleet$/^warm$"
	minFleetEventsPerSec = 10000.0
	maxFleetSchedP99Ms   = 10.0
	// minFleetParity is the workers=8 / workers=1 warm events/s floor:
	// owner-worker dispatch must not anti-scale when the pool grows past
	// the core count.
	minFleetParity       = 0.9
	fleetCheckIterations = "100x" // ~5000 events: the ns/op and memory rows
	// The parity floors compare the median of fleetParityRuns ratios, each
	// from one run of both worker counts. A warm run times
	// fleetParityIterations (100,000 events per worker count): at
	// fleetCheckIterations the window is a few milliseconds, and one-off
	// work inside it decides the ratio.
	fleetParityRuns       = 5
	fleetParityIterations = "2000x"

	fleetColdBenchName       = "BenchmarkFleet/cold/workers=1"
	fleetColdParityBenchName = "BenchmarkFleet/cold/workers=8"
	// minFleetColdParity is the cold workers=8 / workers=1 events/s
	// floor. Each timed cold batch re-admits its chips, so it prepares
	// them again and solves its units on fresh cores; every unit of a
	// chip runs on the chip's owner worker, so a bigger pool must not
	// multiply those solves. Each cold run times
	// fleetColdCheckIterations, because at 1x one first-iteration stall
	// can decide the ratio.
	minFleetColdParity       = 0.5
	fleetColdCheckIterations = "20x"
)

type benchResult struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

type trajectory struct {
	Commit     string        `json:"commit"`
	GoVersion  string        `json:"go_version"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func main() {
	outPath := flag.String("out", "BENCH_adapt.json", "output JSON file")
	checkWarm := flag.String("check-warm", "",
		"instead of writing a trajectory, re-run the warm Figure 10 benchmark once and fail if ns/op regresses more than -tolerance against this baseline JSON")
	checkCold := flag.String("check-cold", "",
		"like -check-warm, but gate the cold (empty-cache) Figure 10 benchmark — the end-to-end build path the batching optimizations target")
	checkFleet := flag.String("check-fleet", "",
		"gate the fleet-service benchmark: warm single-core ns/op against this baseline JSON, plus the absolute events/s and p99 scheduling-latency floors and the warm and cold scaling-parity floors")
	tolerance := flag.Float64("tolerance", 0.20, "allowed fractional regression for -check-warm / -check-cold")
	allowDirty := flag.Bool("allow-dirty", false,
		"record a trajectory from a dirty tree anyway (the commit field is annotated '-dirty'; a checked-in baseline must come from a clean commit)")
	flag.Parse()

	if *checkWarm != "" {
		// The warm gate also checks allocs/op — machine-independent, so no
		// normalization — on the warm Figure 10 run and the steady-state
		// thermal solve, catching allocation regressions that a fast CI
		// machine would hide inside the ns tolerance.
		if err := checkRegression(*checkWarm, warmBenchName, *tolerance,
			warmBenchName, steadyBenchName); err != nil {
			fatal(err)
		}
		return
	}
	if *checkCold != "" {
		if err := checkRegression(*checkCold, coldBenchName, *tolerance); err != nil {
			fatal(err)
		}
		return
	}
	if *checkFleet != "" {
		if err := checkFleetRegression(*checkFleet, *tolerance); err != nil {
			fatal(err)
		}
		return
	}

	// A checked-in trajectory must be reproducible from its commit field;
	// a dirty tree breaks that provenance, so writing one is opt-in and
	// loudly annotated.
	if gitDirty() {
		if !*allowDirty {
			fatal(fmt.Errorf("working tree is dirty; commit first so the trajectory's commit field is reproducible, or pass -allow-dirty to record anyway"))
		}
		fmt.Fprintln(os.Stderr, "benchjson: WARNING: recording from a dirty tree; the commit field will say '-dirty' and the result must not be checked in as a baseline")
	}

	fast, err := runBench(fastPattern, "")
	if err != nil {
		fatal(err)
	}
	slow, err := runBench(slowPattern, "1x")
	if err != nil {
		fatal(err)
	}
	fleetWarm, err := runBench(fleetWarmPattern, fleetCheckIterations)
	if err != nil {
		fatal(err)
	}
	fleetCold, err := runBench(fleetColdPattern, "1x")
	if err != nil {
		fatal(err)
	}
	traj := trajectory{
		Commit:     gitCommit(),
		GoVersion:  runtime.Version(),
		Benchmarks: append(append(append(fast, slow...), fleetWarm...), fleetCold...),
	}
	data, err := json.MarshalIndent(traj, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %d benchmarks at commit %s\n",
		*outPath, len(traj.Benchmarks), traj.Commit)
}

// checkRegression is the benchstat-style CI smoke gate: it re-runs the
// Figure 10 benchmark once and compares benchName's ns/op against the
// checked-in trajectory at baselinePath. Machines differ in absolute
// speed, so the gate normalizes both sides by BenchmarkCorePipelineReference
// (an unoptimized, allocation-free kernel whose cost tracks raw CPU speed)
// when the baseline recorded it; otherwise it falls back to the raw ratio.
func checkRegression(baselinePath, benchName string, tolerance float64, allocGates ...string) error {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base trajectory
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	find := func(results []benchResult, name string) (benchResult, bool) {
		for _, r := range results {
			if r.Name == name {
				return r, true
			}
		}
		return benchResult{}, false
	}
	baseline, ok := find(base.Benchmarks, benchName)
	if !ok {
		return fmt.Errorf("%s: no %s entry to compare against", baselinePath, benchName)
	}
	current, err := runBench("^(BenchmarkFig10_ArtifactCache)$", "1x")
	if err != nil {
		return err
	}
	now, ok := find(current, benchName)
	if !ok {
		return fmt.Errorf("benchmark run produced no %s line", benchName)
	}
	ratio := now.NsPerOp / baseline.NsPerOp
	scale, err := machineScale(base)
	if err != nil {
		return err
	}
	ratio /= scale
	fmt.Fprintf(os.Stderr,
		"benchjson: %s: %.3gs now vs %.3gs baseline (machine scale %.2f, normalized ratio %.2f, tolerance +%.0f%%)\n",
		benchName, now.NsPerOp/1e9, baseline.NsPerOp/1e9, scale, ratio, tolerance*100)
	if ratio > 1+tolerance {
		return fmt.Errorf("regression: %s %.0f ns/op vs baseline %.0f ns/op (normalized %.2fx > %.2fx allowed)",
			benchName, now.NsPerOp, baseline.NsPerOp, ratio, 1+tolerance)
	}
	for _, name := range allocGates {
		baseAllocs, ok := find(base.Benchmarks, name)
		if !ok {
			return fmt.Errorf("%s: no %s entry for the allocs gate", baselinePath, name)
		}
		nowAllocs, ok := find(current, name)
		if !ok {
			// Not part of the Figure 10 run already in hand: run it now.
			extra, err := runBench("^Benchmark"+strings.Split(strings.TrimPrefix(name, "Benchmark"), "/")[0]+"$", "")
			if err != nil {
				return err
			}
			if nowAllocs, ok = find(extra, name); !ok {
				return fmt.Errorf("benchmark run produced no %s line", name)
			}
		}
		// The +0.5 slack keeps integer alloc counts from tripping on
		// rounding at tiny baselines (1 alloc stays 1, not 1.2).
		limit := baseAllocs.AllocsPerOp*(1+tolerance) + 0.5
		fmt.Fprintf(os.Stderr,
			"benchjson: %s: %.0f allocs/op now vs %.0f baseline (limit %.0f)\n",
			name, nowAllocs.AllocsPerOp, baseAllocs.AllocsPerOp, limit)
		if nowAllocs.AllocsPerOp > limit {
			return fmt.Errorf("regression: %s %.0f allocs/op vs baseline %.0f (limit %.0f)",
				name, nowAllocs.AllocsPerOp, baseAllocs.AllocsPerOp, limit)
		}
	}
	return nil
}

// machineScale re-runs the BenchmarkCorePipelineReference speed anchor
// and returns its ns/op ratio against the baseline's recording (1.0 when
// the baseline lacks the anchor). Machines differ in absolute speed; the
// regression gates divide their ratios by this scale.
func machineScale(base trajectory) (float64, error) {
	var baseRef benchResult
	found := false
	for _, r := range base.Benchmarks {
		if r.Name == "BenchmarkCorePipelineReference" {
			baseRef, found = r, true
			break
		}
	}
	if !found || baseRef.NsPerOp <= 0 {
		return 1.0, nil
	}
	ref, err := runBench("^BenchmarkCorePipelineReference$", "")
	if err != nil {
		return 0, err
	}
	for _, r := range ref {
		if r.Name == "BenchmarkCorePipelineReference" && r.NsPerOp > 0 {
			return r.NsPerOp / baseRef.NsPerOp, nil
		}
	}
	return 1.0, nil
}

// checkFleetRegression gates the fleet service's serving path. Five
// checks: the warm single-core ns/op against the checked-in trajectory
// (machine-normalized, like the other gates); the absolute service
// floors — warm-cache events/s and p99 scheduling latency — which hold
// as-is on any machine the gate is expected to pass on; the memory
// budget — warm bytes/op and allocs/op at both worker counts must stay
// within tolerance of the baseline (machine-independent, so no
// normalization); the warm scaling parity floor — warm workers=8 must
// reach minFleetParity of the workers=1 events/s, so owner-worker
// dispatch does not anti-scale past the core count; and the cold parity
// floor — cold workers=8 must reach minFleetColdParity of cold
// workers=1 on batches that prepare their chips and solve their units
// afresh, the property one owner worker per chip exists to hold.
// Each parity is the median of fleetParityRuns runs.
func checkFleetRegression(baselinePath string, tolerance float64) error {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base trajectory
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("parse %s: %w", baselinePath, err)
	}
	find := func(results []benchResult, name string) (benchResult, bool) {
		for _, r := range results {
			if r.Name == name {
				return r, true
			}
		}
		return benchResult{}, false
	}
	baseline, ok := find(base.Benchmarks, fleetBenchName)
	if !ok {
		return fmt.Errorf("%s: no %s entry to compare against", baselinePath, fleetBenchName)
	}
	current, err := runBench(fleetWarmPattern, fleetCheckIterations)
	if err != nil {
		return err
	}
	now, ok := find(current, fleetBenchName)
	if !ok {
		return fmt.Errorf("benchmark run produced no %s line", fleetBenchName)
	}
	ratio := now.NsPerOp / baseline.NsPerOp
	scale, err := machineScale(base)
	if err != nil {
		return err
	}
	ratio /= scale
	evs := now.Metrics["events/s"]
	p99 := now.Metrics["sched_p99_ms"]
	fmt.Fprintf(os.Stderr,
		"benchjson: %s: %.0f events/s (floor %.0f), sched p99 %.2f ms (ceiling %.0f), normalized ns/op ratio %.2f (tolerance +%.0f%%)\n",
		fleetBenchName, evs, minFleetEventsPerSec, p99, maxFleetSchedP99Ms, ratio, tolerance*100)
	if ratio > 1+tolerance {
		return fmt.Errorf("regression: %s %.0f ns/op vs baseline %.0f ns/op (normalized %.2fx > %.2fx allowed)",
			fleetBenchName, now.NsPerOp, baseline.NsPerOp, ratio, 1+tolerance)
	}
	if evs < minFleetEventsPerSec {
		return fmt.Errorf("fleet throughput floor: %.0f events/s < %.0f required", evs, minFleetEventsPerSec)
	}
	if p99 > maxFleetSchedP99Ms {
		return fmt.Errorf("fleet latency ceiling: sched p99 %.2f ms > %.0f ms allowed", p99, maxFleetSchedP99Ms)
	}
	// Memory budget: B/op and allocs/op are machine-independent, so they
	// gate directly against the baseline at both worker counts. The flat
	// slack terms keep tiny baselines from tripping on rounding.
	for _, name := range []string{fleetBenchName, fleetParityBenchName} {
		b, ok := find(base.Benchmarks, name)
		if !ok {
			return fmt.Errorf("%s: no %s entry for the memory gate", baselinePath, name)
		}
		n, ok := find(current, name)
		if !ok {
			return fmt.Errorf("benchmark run produced no %s line", name)
		}
		byteLimit := b.BytesPerOp*(1+tolerance) + 512
		allocLimit := b.AllocsPerOp*(1+tolerance) + 0.5
		fmt.Fprintf(os.Stderr,
			"benchjson: %s: %.0f B/op (limit %.0f), %.0f allocs/op (limit %.0f)\n",
			name, n.BytesPerOp, byteLimit, n.AllocsPerOp, allocLimit)
		if n.BytesPerOp > byteLimit {
			return fmt.Errorf("regression: %s %.0f B/op vs baseline %.0f (limit %.0f)",
				name, n.BytesPerOp, b.BytesPerOp, byteLimit)
		}
		if n.AllocsPerOp > allocLimit {
			return fmt.Errorf("regression: %s %.0f allocs/op vs baseline %.0f (limit %.0f)",
				name, n.AllocsPerOp, b.AllocsPerOp, allocLimit)
		}
	}
	// Scaling parity, warm and cold: each ratio's two rows come from one
	// run, so it needs no normalization, and the floor reads the median.
	// Both parities are measured and reported before either fails.
	var errs []error
	for _, p := range []struct {
		label, pattern, benchtime string
		w1, w8                    string
		floor                     float64
	}{
		{"warm", fleetWarmPattern, fleetParityIterations, fleetBenchName, fleetParityBenchName, minFleetParity},
		{"cold", fleetColdPattern, fleetColdCheckIterations, fleetColdBenchName, fleetColdParityBenchName, minFleetColdParity},
	} {
		ratios := make([]float64, fleetParityRuns)
		for i := range ratios {
			results, err := runBench(p.pattern, p.benchtime)
			if err != nil {
				return err
			}
			one, ok1 := find(results, p.w1)
			eight, ok8 := find(results, p.w8)
			if !ok1 || !ok8 {
				return fmt.Errorf("benchmark run produced no %s or no %s line", p.w1, p.w8)
			}
			ratios[i] = eight.Metrics["events/s"] / one.Metrics["events/s"]
			fmt.Fprintf(os.Stderr,
				"benchjson: %s fleet parity run %d: workers=8 %.0f events/s / workers=1 %.0f = %.2fx\n",
				p.label, i+1, eight.Metrics["events/s"], one.Metrics["events/s"], ratios[i])
		}
		sort.Float64s(ratios)
		parity := ratios[len(ratios)/2]
		fmt.Fprintf(os.Stderr, "benchjson: %s fleet parity: median %.2fx of %d runs (floor %.2fx)\n",
			p.label, parity, len(ratios), p.floor)
		if parity < p.floor {
			errs = append(errs, fmt.Errorf("%s fleet scaling parity: workers=8 reaches only %.2fx of workers=1 events/s in the median run (floor %.2fx)",
				p.label, parity, p.floor))
		}
	}
	return errors.Join(errs...)
}

func runBench(pattern, benchtime string) ([]benchResult, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, ".")
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	results, err := parseBench(out.String())
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("no benchmark lines matched %q", pattern)
	}
	return results, nil
}

// parseBench reads standard `go test -bench` result lines:
//
//	BenchmarkFreqSolve-8   43210   27726 ns/op   248 B/op   5 allocs/op
//
// Unrecognized value/unit pairs (b.ReportMetric output) land in Metrics.
func parseBench(out string) ([]benchResult, error) {
	var results []benchResult
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i] // strip the -GOMAXPROCS suffix
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // a status line, not a result line
		}
		r := benchResult{Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", line, err)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				r.NsPerOp = v
			case "B/op":
				r.BytesPerOp = v
			case "allocs/op":
				r.AllocsPerOp = v
			default:
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[unit] = v
			}
		}
		results = append(results, r)
	}
	return results, nil
}

func gitDirty() bool {
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return err == nil && len(bytes.TrimSpace(status)) > 0
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if gitDirty() {
		commit += "-dirty"
	}
	return commit
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
