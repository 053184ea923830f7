// Command fleetload drives the fleet service with synthetic traffic and
// reports honest serving numbers: events/s and latency quantiles from a
// driven server, not an in-process microbenchmark.
//
// It generates a deterministic event trace (joins up front, then run
// batches across a chip/class/app matrix) and offers it either
// closed-loop (each connection submits its next batch as soon as the
// previous one finishes — throughput finds its own level) or open-loop
// (batches arrive on a fixed schedule regardless of completions — the
// coordinated-omission-free regime; overload sheds and is reported, not
// hidden).
//
// Usage:
//
//	fleetload -url http://localhost:8080 -conns 4 -duration 5s
//	fleetload -inproc -workers 8 -mode open -target-rate 20000
//	fleetload -url ... -min-events-per-sec 10000 -max-sched-p99-ms 10
//
// Backends:
//
//	-url u       drive a running evalserve over HTTP NDJSON
//	-inproc      drive an in-process fleet (no network, no server setup)
//
// Load shape:
//
//	-mode m            closed (default) or open
//	-conns n           concurrent submitters (closed) / senders (open)
//	-target-rate r     open-loop arrival rate, events/s
//	-duration d        driving time after the join phase
//	-batch n           events per submitted batch
//	-chips n           fleet size; all join up front
//	-classes list      admission classes cycled across batches
//	-run-mode m        baseline (default; pure serving-path load),
//	                   fuzzy, static, exh, or mix
//	-env e             environment for adaptive run modes
//	-seed s            trace seed
//
// Assertions (for CI smokes; violation exits non-zero):
//
//	-min-events-per-sec f   floor on measured events/s
//	-max-sched-p99-ms f     ceiling on the server's sched p99 from
//	                        /v1/stats (or the in-process snapshot)
//
// The summary is one JSON object on stdout: measured throughput,
// request-level latency quantiles, error/shed counts, and the server's
// own stats snapshot.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	var (
		url     = flag.String("url", "", "evalserve base URL (e.g. http://localhost:8080)")
		inproc  = flag.Bool("inproc", false, "drive an in-process fleet instead of HTTP")
		mode    = flag.String("mode", "closed", "load mode: closed or open")
		conns   = flag.Int("conns", 4, "concurrent submitters")
		rate    = flag.Float64("target-rate", 10000, "open-loop arrival rate, events/s")
		dur     = flag.Duration("duration", 5*time.Second, "driving time after joins")
		batchN  = flag.Int("batch", 50, "events per batch")
		chips   = flag.Int("chips", 16, "chips joined up front")
		classes = flag.String("classes", "interactive,bulk", "comma-separated admission classes")
		runMode = flag.String("run-mode", fleet.ModeBaseline, "run mode: baseline, static, fuzzy, exh, or mix")
		env     = flag.String("env", "TS+ASV+Q+FU", "environment for adaptive run modes")
		seed    = flag.Int64("seed", 1, "trace seed")

		workers  = flag.Int("workers", 0, "in-process fleet workers (0 = GOMAXPROCS)")
		traceLen = flag.Int("tracelen", 8000, "in-process instructions per phase profile")

		minRate  = flag.Float64("min-events-per-sec", 0, "assert measured events/s >= this (0 = off)")
		maxP99Ms = flag.Float64("max-sched-p99-ms", 0, "assert server sched p99 <= this (0 = off)")
	)
	flag.Parse()

	if (*url == "") == !*inproc {
		fatal(fmt.Errorf("pick exactly one backend: -url or -inproc"))
	}
	var be backend
	var err error
	if *inproc {
		be, err = newInprocBackend(*workers, *traceLen)
	} else {
		be = &httpBackend{base: strings.TrimSuffix(*url, "/"), client: &http.Client{}}
	}
	if err != nil {
		fatal(err)
	}
	defer be.close()

	gen := newTraceGen(*seed, *chips, splitList(*classes), *runMode, *env)
	if _, _, err := be.submit(gen.joinBatch()); err != nil {
		fatal(fmt.Errorf("join phase: %w", err))
	}

	var m measured
	switch *mode {
	case "closed":
		m = driveClosed(be, gen, *conns, *batchN, *dur)
	case "open":
		m = driveOpen(be, gen, *conns, *batchN, *rate, *dur)
	default:
		fatal(fmt.Errorf("unknown -mode %q (want closed or open)", *mode))
	}

	snap, serr := be.stats()
	sum := summary{
		Mode:    *mode,
		Backend: map[bool]string{true: "inproc", false: "http"}[*inproc],
		Conns:   *conns, Batch: *batchN, Chips: *chips, RunMode: *runMode,
		DurationS:    m.elapsed.Seconds(),
		Batches:      m.batches,
		Events:       m.events,
		OK:           m.ok,
		Errors:       m.errs,
		Shed:         m.shed,
		EventsPerSec: float64(m.events) / m.elapsed.Seconds(),
		ReqP50Ms:     ms(m.req.Quantile(0.50)),
		ReqP99Ms:     ms(m.req.Quantile(0.99)),
	}
	if *mode == "open" {
		sum.TargetRate = *rate
	}
	if serr != nil {
		fmt.Fprintln(os.Stderr, "fleetload: stats fetch:", serr)
	} else {
		sum.Stats = &snap
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(sum); err != nil {
		fatal(err)
	}

	failed := false
	if *minRate > 0 && sum.EventsPerSec < *minRate {
		fmt.Fprintf(os.Stderr, "fleetload: FAIL events/s %.0f < floor %.0f\n", sum.EventsPerSec, *minRate)
		failed = true
	}
	if *maxP99Ms > 0 {
		if sum.Stats == nil {
			fmt.Fprintln(os.Stderr, "fleetload: FAIL sched p99 assertion needs a stats snapshot")
			failed = true
		} else if sum.Stats.SchedP99Ms > *maxP99Ms {
			fmt.Fprintf(os.Stderr, "fleetload: FAIL sched p99 %.3f ms > ceiling %.3f ms\n", sum.Stats.SchedP99Ms, *maxP99Ms)
			failed = true
		}
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fleetload:", err)
	os.Exit(1)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// summary is the stdout report.
type summary struct {
	Mode       string  `json:"mode"`
	Backend    string  `json:"backend"`
	Conns      int     `json:"conns"`
	Batch      int     `json:"batch"`
	Chips      int     `json:"chips"`
	RunMode    string  `json:"run_mode"`
	TargetRate float64 `json:"target_rate,omitempty"`

	DurationS    float64 `json:"duration_s"`
	Batches      int64   `json:"batches"`
	Events       int64   `json:"events"`
	OK           int64   `json:"ok"`
	Errors       int64   `json:"errors"`
	Shed         int64   `json:"shed,omitempty"`
	EventsPerSec float64 `json:"events_per_sec"`
	ReqP50Ms     float64 `json:"req_p50_ms"`
	ReqP99Ms     float64 `json:"req_p99_ms"`

	Stats *fleet.Snapshot `json:"stats,omitempty"`
}

// measured is what a drive loop observed.
type measured struct {
	elapsed time.Duration
	batches int64
	events  int64
	ok      int64
	errs    int64
	shed    int64
	req     *obs.Histogram
}

// backend submits one batch and reports (ok, error/rejected) event
// counts.
type backend interface {
	submit(events []fleet.Event) (ok, errs int, err error)
	stats() (fleet.Snapshot, error)
	close()
}

// httpBackend drives a running evalserve.
type httpBackend struct {
	base   string
	client *http.Client
}

type wireEvents struct {
	Events []fleet.Event `json:"events"`
}

func (h *httpBackend) submit(events []fleet.Event) (int, int, error) {
	body, err := json.Marshal(wireEvents{Events: events})
	if err != nil {
		return 0, 0, err
	}
	resp, err := h.client.Post(h.base+"/v1/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, fmt.Errorf("POST /v1/batch: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	okN, errN := 0, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var line struct {
		Status string `json:"status"`
	}
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return okN, errN, fmt.Errorf("bad result line: %w", err)
		}
		if line.Status == fleet.StatusOK {
			okN++
		} else {
			errN++
		}
	}
	return okN, errN, sc.Err()
}

func (h *httpBackend) stats() (fleet.Snapshot, error) {
	var snap fleet.Snapshot
	resp, err := h.client.Get(h.base + "/v1/stats")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

func (h *httpBackend) close() {}

// inprocBackend drives a fleet in this process: the scheduling and
// emission paths under load, minus the network.
type inprocBackend struct {
	fl *fleet.Fleet
}

func newInprocBackend(workers, traceLen int) (backend, error) {
	opts := core.DefaultOptions()
	opts.TraceLen = traceLen
	sim, err := core.NewSimulator(opts)
	if err != nil {
		return nil, err
	}
	fl, err := fleet.New(sim, fleet.Config{Workers: workers})
	if err != nil {
		return nil, err
	}
	return &inprocBackend{fl: fl}, nil
}

func (b *inprocBackend) submit(events []fleet.Event) (int, int, error) {
	okN, errN := 0, 0
	err := b.fl.SubmitBatch(events, func(res fleet.Result) {
		if res.Status == fleet.StatusOK {
			okN++
		} else {
			errN++
		}
	})
	return okN, errN, err
}

func (b *inprocBackend) stats() (fleet.Snapshot, error) { return b.fl.Stats(), nil }

func (b *inprocBackend) close() { b.fl.Close() }

// traceGen produces the deterministic synthetic trace.
type traceGen struct {
	chips   []int64
	classes []string
	apps    []workload.App
	runMode string
	env     string
	seed    int64
	at      atomic.Int64
	n       atomic.Int64
}

func newTraceGen(seed int64, chips int, classes []string, runMode, env string) *traceGen {
	g := &traceGen{classes: classes, apps: workload.Suite(), runMode: runMode, env: env, seed: seed}
	if len(g.classes) == 0 {
		g.classes = []string{"default"}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < chips; i++ {
		g.chips = append(g.chips, rng.Int63n(1<<20)+1)
	}
	return g
}

func (g *traceGen) joinBatch() []fleet.Event {
	evs := make([]fleet.Event, len(g.chips))
	for i, chip := range g.chips {
		evs[i] = fleet.Event{At: g.at.Add(1), Kind: fleet.KindJoin, Class: "ops", Chip: chip}
	}
	return evs
}

// runBatch derives batch k of n run events. Each event cycles the chip,
// class, app, and phase matrices at coprime-ish strides so every chip
// sees every class and the (app, phase) working set repeats quickly —
// the warm serving regime the fleet optimizes for.
func (g *traceGen) runBatch(n int) []fleet.Event {
	k := g.n.Add(1)
	evs := make([]fleet.Event, n)
	for i := range evs {
		j := int(k)*n + i
		mode := g.runMode
		if mode == "mix" {
			mode = []string{fleet.ModeBaseline, fleet.ModeFuzzy, fleet.ModeStatic}[j%3]
		}
		ev := fleet.Event{
			At:    g.at.Add(1),
			Kind:  fleet.KindRun,
			Class: g.classes[j%len(g.classes)],
			Chip:  g.chips[j%len(g.chips)],
			Mode:  mode,
		}
		if mode != fleet.ModeBaseline {
			app := g.apps[j%len(g.apps)]
			phase := (j / len(g.apps)) % len(app.Phases)
			ev.Env = g.env
			ev.App = app.Name
			ev.Phase = &phase
		}
		evs[i] = ev
	}
	return evs
}

// driveClosed runs conns submitters back-to-back for dur.
func driveClosed(be backend, gen *traceGen, conns, batchN int, dur time.Duration) measured {
	m := measured{req: &obs.Histogram{}}
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	var batches, events, okN, errN atomic.Int64
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				evs := gen.runBatch(batchN)
				sw := m.req.Start()
				ok, errs, err := be.submit(evs)
				sw.Stop()
				if err != nil {
					fmt.Fprintln(os.Stderr, "fleetload: submit:", err)
					errN.Add(int64(len(evs)))
				} else {
					okN.Add(int64(ok))
					errN.Add(int64(errs))
				}
				batches.Add(1)
				events.Add(int64(len(evs)))
			}
		}()
	}
	wg.Wait()
	m.elapsed = time.Since(start)
	m.batches, m.events, m.ok, m.errs = batches.Load(), events.Load(), okN.Load(), errN.Load()
	return m
}

// driveOpen schedules batches at the target arrival rate; conns senders
// drain the schedule. Arrivals that find every sender busy and the
// queue full are shed and counted — open-loop overload is reported, not
// absorbed into the arrival schedule.
func driveOpen(be backend, gen *traceGen, conns, batchN int, rate float64, dur time.Duration) measured {
	m := measured{req: &obs.Histogram{}}
	interval := time.Duration(float64(batchN) / rate * float64(time.Second))
	if interval <= 0 {
		interval = time.Microsecond
	}
	jobs := make(chan []fleet.Event, 2*conns)
	var wg sync.WaitGroup
	var batches, events, okN, errN, shed atomic.Int64
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for evs := range jobs {
				sw := m.req.Start()
				ok, errs, err := be.submit(evs)
				sw.Stop()
				if err != nil {
					fmt.Fprintln(os.Stderr, "fleetload: submit:", err)
					errN.Add(int64(len(evs)))
				} else {
					okN.Add(int64(ok))
					errN.Add(int64(errs))
				}
				batches.Add(1)
				events.Add(int64(len(evs)))
			}
		}()
	}
	start := time.Now()
	deadline := start.Add(dur)
	tick := time.NewTicker(interval)
	for now := range tick.C {
		if now.After(deadline) {
			break
		}
		select {
		case jobs <- gen.runBatch(batchN):
		default:
			shed.Add(int64(batchN))
		}
	}
	tick.Stop()
	close(jobs)
	wg.Wait()
	m.elapsed = time.Since(start)
	m.batches, m.events, m.ok, m.errs, m.shed = batches.Load(), events.Load(), okN.Load(), errN.Load(), shed.Load()
	return m
}
