// Command benchjson gates the fleet service's scaling parity. Over the
// median of five runs of BenchmarkFleet, workers=8 must reach 0.90 of
// the workers=1 events/s warm and 0.50 of it cold. Each ratio compares
// two rows of one run, so it needs no baseline and no normalization for
// machine speed. Run it from the repository root:
//
//	go run ./tools/benchjson
package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// parityRuns is how many runs each parity's median is taken over.
const parityRuns = 5

// parities are the two floors.
//
// Warm: owner-worker dispatch must not anti-scale when the pool grows
// past the core count. A warm run times 2000x (100,000 events per
// worker count): at 100x the window is a few milliseconds, and one-off
// work inside it decides the ratio.
//
// Cold: each timed cold batch re-admits its chips, so it prepares them
// again and solves its units on fresh cores. Every unit of a chip runs
// on the chip's owner worker, so a bigger pool must not multiply those
// solves. A cold run times 20x, because at 1x one first-iteration stall
// can decide the ratio.
var parities = []struct {
	label, benchtime string
	floor            float64
}{
	{"warm", "2000x", 0.9},
	{"cold", "20x", 0.5},
}

func main() {
	// Both parities are measured and reported before either fails.
	var errs []error
	for _, p := range parities {
		ratios := make([]float64, parityRuns)
		for i := range ratios {
			results, err := runBench("^BenchmarkFleet$/^"+p.label+"$", p.benchtime)
			if err != nil {
				fatal(err)
			}
			one := results["BenchmarkFleet/"+p.label+"/workers=1"]["events/s"]
			eight := results["BenchmarkFleet/"+p.label+"/workers=8"]["events/s"]
			if one <= 0 || eight <= 0 {
				fatal(fmt.Errorf("%s fleet run reported no events/s for workers=1 or workers=8", p.label))
			}
			ratios[i] = eight / one
			fmt.Fprintf(os.Stderr,
				"benchjson: %s fleet parity run %d: workers=8 %.0f events/s / workers=1 %.0f = %.2fx\n",
				p.label, i+1, eight, one, ratios[i])
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
	if err := errors.Join(errs...); err != nil {
		fatal(err)
	}
}

// runBench runs the root package's benchmarks matching pattern for
// benchtime and returns each result row's value/unit pairs by row name.
func runBench(pattern, benchtime string) (map[string]map[string]float64, error) {
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchtime", benchtime, "."}
	cmd := exec.Command("go", args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchjson: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return parseBench(out.String())
}

// parseBench reads standard `go test -bench` result lines:
//
//	BenchmarkFleet/warm/workers=1-8   2000   52310 ns/op   955900 events/s
//
// keyed by the row name without its -GOMAXPROCS suffix, then by unit.
func parseBench(out string) (map[string]map[string]float64, error) {
	results := make(map[string]map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			continue // a status line, not a result line
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			name = name[:i]
		}
		row := make(map[string]float64)
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("parse %q: %w", line, err)
			}
			row[fields[i+1]] = v
		}
		results[name] = row
	}
	return results, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
