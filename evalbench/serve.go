package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/workload"
)

// conns is serve-replay's client concurrency: one connection per CPU, so
// the load comes from one process with at most nproc connections.
func (b *bench) conns() int { return b.workers }

// unitKey names one simulation unit.
type unitKey struct {
	Chip  int64
	Env   string
	Mode  string
	App   string
	Phase int
}

func keyOf(r fleet.Result) unitKey {
	k := unitKey{Chip: r.Chip, Env: r.Env, Mode: r.Mode, App: r.App, Phase: -1}
	if r.Phase != nil {
		k.Phase = *r.Phase
	}
	return k
}

// phaseUnits lists every (app, phase) of the bench applications.
func phaseUnits() ([]workload.App, []int, error) {
	var apps []workload.App
	var phases []int
	for _, name := range benchApps {
		app, err := workload.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		for p := range app.Phases {
			apps = append(apps, app)
			phases = append(phases, p)
		}
	}
	return apps, phases, nil
}

func runEvent(at, chip int64, env, class string, app workload.App, phase int) fleet.Event {
	p := phase
	return fleet.Event{At: at, Kind: fleet.KindRun, Class: class, Chip: chip, Env: env, Mode: fleet.ModeExh, App: app.Name, Phase: &p}
}

// serveOracle is how a serve workload checks results: check runs on
// each result as it arrives ("" = correct), and hist, when set, records
// every result for the post-run replay.
type serveOracle struct {
	check func(fleet.Result) string
	hist  *history
}

// collector gathers a serve run's window: request timings, outcomes,
// and, for traced requests, per-result diagnostics and results.
type collector struct {
	mu       sync.Mutex
	orc      serveOracle
	warmup   bool      // results are checked but not timed
	lat      []float64 // ms, due → last line, untraced requests
	tracedMs []float64 // the same, traced requests
	late     []float64 // ms, due → sent, untraced requests
	okEvents int
	batches  []batchDiag
	diags    []resultDiag
	kept     []fleet.Result
	tasks    int
}

// keepResults bounds how many results a traced run holds for the
// AppendJSON timing.
const keepResults = 100_000

// exchange posts one batch, inside a span when traced.
func (b *bench) exchange(client *http.Client, url string, events []fleet.Event, traced bool) batchOut {
	var sp *obs.Span
	if traced {
		sp = b.tr.Start(spanBatch)
	}
	out := post(client, url, events)
	sp.End()
	return out
}

// record accounts one request that was due at due.
func (c *collector) record(b *bench, events []fleet.Event, due time.Time, out batchOut, traced bool) {
	ok, failed, msg := tally(events, out, c.orc.check)
	if c.orc.hist != nil {
		c.orc.hist.add(out.results)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b.account(int64(len(events)), int64(failed), msg)
	if c.warmup {
		return
	}
	c.okEvents += ok
	lat := float64(out.last.Sub(due)) / 1e6
	late := float64(out.sent.Sub(due)) / 1e6
	if traced {
		c.tracedMs = append(c.tracedMs, lat)
	} else {
		c.lat = append(c.lat, lat)
		c.late = append(c.late, late)
	}
	if !b.opts.trace {
		return
	}
	// A traced run keeps every request's diagnostics, so the fleet
	// figures cover the whole window; only traced requests carry a span
	// and keep their results for the AppendJSON timing.
	d := batchDiag{LatencyMs: lat, LateMs: late, Events: len(events)}
	if !out.first.IsZero() {
		d.FirstMs = float64(out.first.Sub(out.sent)) / 1e6
	}
	if n := len(out.results); n > 0 {
		d.LastTotalMs = out.results[n-1].TotalMs
	}
	c.batches = append(c.batches, d)
	// Results of one dispatched task share its worker, queue wait, and
	// total time; distinct tasks of a batch differ in at least one.
	task := make(map[[3]float64]int)
	for _, r := range out.results {
		tk := [3]float64{float64(r.Worker), r.SchedMs, r.TotalMs}
		id, seen := task[tk]
		if !seen {
			c.tasks++
			id = c.tasks
			task[tk] = id
		}
		c.diags = append(c.diags, resultDiag{
			SchedMs: r.SchedMs, TotalMs: r.TotalMs, Batched: r.Batched, CacheHit: r.CacheHit,
			Adaptive: r.Kind == fleet.KindRun && r.Mode != fleet.ModeBaseline && r.Status == fleet.StatusOK,
			Task:     id,
		})
		if traced && len(c.kept) < keepResults {
			c.kept = append(c.kept, r)
		}
	}
}

// driveFn runs the window's load against the server, recording into c.
// Request k of a client is traced when b.traced(k).
type driveFn func(c *collector, window time.Duration)

// encodeMin is how many AppendJSON calls the wire timing spans, cycling
// over the kept results, so the per-result figure is steady.
const encodeMin = 200_000

// serveWarmup is how long the load runs, checked but untimed, before the
// measured window: long enough for the server's first phase-profile
// builds and the initial residents' first solves to pass, so the window
// sees the steady state.
const serveWarmup = 2 * time.Second

// measureServe drives the warm-up and the window and records the
// end-to-end metrics, or (traced) fills the ledger; then it drains the
// server (a failed drain is a failed operation) and replays the recorded
// history, if any.
func (b *bench) measureServe(srv *server, client *http.Client, orc serveOracle, drive driveFn) error {
	drive(&collector{orc: orc, warmup: true}, serveWarmup)
	c := &collector{orc: orc}
	var before []metricRow
	if b.opts.trace {
		var err error
		if before, err = srv.fetchMetrics(client); err != nil {
			return err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c0, err := srv.cpu()
	if err != nil {
		return err
	}
	start := time.Now()
	drive(c, time.Duration(b.opts.seconds)*time.Second)
	elapsed := time.Since(start).Seconds()
	c1, err := srv.cpu()
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&ms1)
	wallEvents := float64(c.okEvents) / elapsed
	if !b.opts.trace {
		// The server's CPU over the window, per request.
		ops := float64(len(c.lat))
		b.setOpMetrics([]float64{ratio(ms(c1-c0), ops)}, c.lat, wallEvents)
		fmt.Printf("# requests=%d events ok=%d in %.2fs; late p50=%.3fms p99=%.3fms\n",
			len(c.lat), c.okEvents, elapsed, median(c.late), tail(c.late, 0.99).Value)
	} else {
		after, err := srv.fetchMetrics(client)
		if err != nil {
			return err
		}
		encoded := 0
		sp := b.tr.Start(spanAppendJSON)
		var buf []byte
		for len(c.kept) > 0 && encoded < encodeMin {
			for i := range c.kept {
				buf = c.kept[i].AppendJSON(buf[:0])
			}
			encoded += len(c.kept)
		}
		sp.End()
		b.led.Encoded = encoded
		b.led.Registry = deltaRows(before, after)
		b.led.WindowS = elapsed
		b.led.Results = c.diags
		b.led.Batches = c.batches
		b.led.Ops = len(c.lat) + len(c.tracedMs)
		b.led.AllocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
		b.led.WallOpsMs = c.lat
		b.led.WallEventsPerS = wallEvents
		b.led.TracedP50Ms = median(c.tracedMs)
		if err := b.led.setSpans(b.tr); err != nil {
			return err
		}
	}
	rss, err := vmHWM(srv.pid())
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss, "MB")
	if err := srv.stop(); err != nil {
		b.account(1, 1, err.Error())
	} else {
		b.account(1, 0, "")
	}
	if orc.hist != nil {
		return orc.hist.verify(b)
	}
	return nil
}

// mustPost submits a set-up batch; any failed event fails the set-up.
func mustPost(client *http.Client, srv *server, events []fleet.Event) (batchOut, error) {
	out := post(client, srv.url, events)
	if _, failed, msg := tally(events, out, nil); failed > 0 {
		return out, fmt.Errorf("set-up batch: %d of %d events failed: %s", failed, len(events), msg)
	}
	return out, nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}
}

// Serve-replay: a fixed chip population whose every unit the store
// already holds. Closed loop, so throughput finds its own level. The
// population, environment, and batch size are BenchmarkFleet/warm's; the
// baseline share is fleetload's -run-mode mix, where one event in three
// is a baseline probe.
const (
	replayChips        = 4
	replayEnv          = "TS+ASV"
	replayBatch        = 50
	replayBaselineProb = 1.0 / 3
)

// runServeReplay: set-up starts evalserve on a fresh store, joins the
// population, computes every unit once (populate), drains it, restarts
// evalserve on the populated store, joins again, and touches every unit
// once more, which must replay from the store. The measured load is
// closed-loop batches mixing baseline probes and phase-granular exh runs.
func runServeReplay(b *bench) error {
	apps, phases, err := phaseUnits()
	if err != nil {
		return err
	}
	chipBase := 20_000 + floorMod(b.opts.seed, 1_000_000)*replayChips
	var all, joins []fleet.Event
	for c := int64(0); c < replayChips; c++ {
		chip := chipBase + c
		joins = append(joins, fleet.Event{Kind: fleet.KindJoin, Chip: chip})
		all = append(all, fleet.Event{Kind: fleet.KindRun, Chip: chip, Mode: fleet.ModeBaseline})
		for i, app := range apps {
			all = append(all, runEvent(0, chip, replayEnv, "", app, phases[i]))
		}
	}
	client := newClient(b.conns())
	var srv *server
	var populated []fleet.Result
	ds, err := b.setupTimes(func(last bool) error {
		dir, err := b.freshDir("store")
		if err != nil {
			return err
		}
		pop, err := b.startServer("-cache-dir", dir)
		if err != nil {
			return err
		}
		if _, err := mustPost(client, pop, joins); err != nil {
			pop.kill()
			return err
		}
		popOut, err := mustPost(client, pop, all)
		if err != nil {
			pop.kill()
			return err
		}
		if err := pop.stop(); err != nil {
			return err
		}
		s, err := b.startServer("-cache-dir", dir)
		if err != nil {
			return err
		}
		if _, err := mustPost(client, s, joins); err != nil {
			s.kill()
			return err
		}
		out, err := mustPost(client, s, all)
		if err != nil {
			s.kill()
			return err
		}
		for _, r := range out.results {
			if r.Mode == fleet.ModeExh && !r.CacheHit {
				s.kill()
				return fmt.Errorf("set-up: chip %d %s phase %d missed the populated store", r.Chip, r.App, *r.Phase)
			}
		}
		if !last {
			if err := s.stop(); err != nil {
				return err
			}
			return os.RemoveAll(dir)
		}
		srv, populated = s, popOut.results
		return nil
	})
	if err != nil {
		return err
	}
	b.setSetup(ds)
	defer srv.kill() // no-op after a clean stop
	// Every measured result must replay from the store and repeat what
	// the populate computed for its unit.
	want := make(map[unitKey]fleet.RunPayload, len(populated))
	for _, r := range populated {
		want[keyOf(r)] = *r.Run
	}
	orc := serveOracle{check: func(r fleet.Result) string {
		switch {
		case r.Kind != fleet.KindRun:
			return ""
		case r.Mode != fleet.ModeBaseline && !r.CacheHit:
			return fmt.Sprintf("chip %d %s phase %d missed the populated store", r.Chip, r.App, *r.Phase)
		case *r.Run != want[keyOf(r)]:
			return fmt.Sprintf("chip %d %s %s differs from its populated result", r.Chip, r.Mode, r.App)
		}
		return ""
	}}
	n := b.conns()
	rngs := make([]*rand.Rand, n)
	ticks := make([]int64, n)
	for conn := range rngs {
		rngs[conn] = rand.New(rand.NewSource(b.opts.seed*1_000 + int64(conn)))
	}
	drive := func(c *collector, window time.Duration) {
		var wg sync.WaitGroup
		start := time.Now()
		for conn := 0; conn < n; conn++ {
			wg.Add(1)
			go func(conn int) {
				defer wg.Done()
				rng := rngs[conn]
				class := fmt.Sprintf("client-%d", conn)
				for k := 0; time.Since(start) < window; k++ {
					ticks[conn]++
					tick := ticks[conn]*int64(n) + int64(conn)
					events := make([]fleet.Event, replayBatch)
					for i := range events {
						chip := chipBase + rng.Int63n(replayChips)
						if rng.Float64() < replayBaselineProb {
							events[i] = fleet.Event{At: tick, Kind: fleet.KindRun, Class: class, Chip: chip, Mode: fleet.ModeBaseline}
							continue
						}
						u := rng.Intn(len(apps))
						events[i] = runEvent(tick, chip, replayEnv, class, apps[u], phases[u])
					}
					out := b.exchange(client, srv.url, events, b.traced(k))
					c.record(b, events, out.sent, out, b.traced(k))
				}
			}(conn)
		}
		wg.Wait()
	}
	if err := b.measureServe(srv, client, orc, drive); err != nil {
		return err
	}
	// The served store holds what the last set-up's populate computed:
	// replay that history to check it, and with it every replayed result.
	hist := newHistory()
	hist.add(populated)
	return hist.verify(b)
}

// Serve-cold: one open-loop client owning a set of resident chips that
// keeps turning over. No artifact store, so every run event solves from
// scratch and every new chip pays the cold path: AcquireChip, the
// base-core build, PE-table builds, AdaptSteady.
//
// evalserve keeps its default round-robin routing, as BenchmarkFleet/cold
// does. The one client submits serially, so that routing places every
// task as a pure function of the event stream (the fleet routes in ingest
// order), and a chip's tasks land on every worker's view in turn, which
// is where the per-worker view duplication behind the cold anti-scaling
// shows.
//
// The batch shape is BenchmarkFleet's (50 exh phase events over 4 chips),
// the environment is fleetload's default, and coldInterval is derived from
// the closed loop's capacity (README.md, "serve-cold rate"). The churn
// period has no measured basis.
const (
	coldEnv       = "TS+ASV+Q+FU"
	coldResidents = 4  // resident chips
	coldBatch     = 50 // exh run events per batch
	coldChurn     = 40 // a resident is replaced every coldChurn batches
	// coldInterval, between consecutive batches, is twice the mean time
	// one batch takes in the closed loop on a 2-vCPU host, so the
	// loop runs at about half its capacity. An interval of 0 runs that
	// closed loop.
	coldInterval = 25 * time.Millisecond
)

// coldClient generates the client's batches: deterministic from the seed.
type coldClient struct {
	rng       *rand.Rand
	next      int64 // next fresh chip seed
	residents []int64
	apps      []workload.App
	phases    []int
}

func newColdClient(seed int64, apps []workload.App, phases []int) *coldClient {
	c := &coldClient{
		rng: rand.New(rand.NewSource(seed*1_000 + 500)),
		// The chip sequence is fixed; the seed draws the traffic over it.
		// Cold-path cost varies from chip to chip by more than the host's
		// noise, so letting the seed pick the chips made runs at
		// different seeds incomparable.
		next: 1_000_000,
		apps: apps, phases: phases,
	}
	for i := 0; i < coldResidents; i++ {
		c.residents = append(c.residents, c.fresh())
	}
	return c
}

func (c *coldClient) fresh() int64 {
	c.next++
	return c.next - 1
}

func (c *coldClient) joins() []fleet.Event {
	var evs []fleet.Event
	for _, chip := range c.residents {
		evs = append(evs, fleet.Event{Kind: fleet.KindJoin, Chip: chip})
	}
	return evs
}

// batch returns the client's j-th batch: every coldChurn batches the
// oldest resident leaves and a fresh chip joins, then coldBatch exh phase
// events on random residents, the first on the chip that just joined.
func (c *coldClient) batch(j int, at int64) []fleet.Event {
	var evs []fleet.Event
	if j > 0 && j%coldChurn == 0 {
		old := c.residents[0]
		nu := c.fresh()
		c.residents = append(c.residents[1:], nu)
		evs = append(evs,
			fleet.Event{At: at, Kind: fleet.KindLeave, Chip: old},
			fleet.Event{At: at, Kind: fleet.KindJoin, Chip: nu})
	}
	for i := 0; i < coldBatch; i++ {
		chip := c.residents[c.rng.Intn(len(c.residents))]
		if i == 0 && len(evs) > 0 {
			chip = c.residents[len(c.residents)-1]
		}
		u := c.rng.Intn(len(c.apps))
		evs = append(evs, runEvent(at, chip, coldEnv, "", c.apps[u], c.phases[u]))
	}
	return evs
}

// runServeCold: set-up starts evalserve without a store and joins the
// first residents. The measured load is an open loop over one connection:
// batch j is due at j × coldInterval and goes out when due or, if its
// predecessor is still outstanding, as soon as that completes. Latency
// counts from the due time.
func runServeCold(b *bench) error {
	apps, phases, err := phaseUnits()
	if err != nil {
		return err
	}
	client := newClient(1)
	var srv *server
	ds, err := b.setupTimes(func(last bool) error {
		s, err := b.startServer("-no-cache")
		if err != nil {
			return err
		}
		if _, err := mustPost(client, s, newColdClient(b.opts.seed, apps, phases).joins()); err != nil {
			s.kill()
			return err
		}
		if !last {
			return s.stop()
		}
		srv = s
		return nil
	})
	if err != nil {
		return err
	}
	b.setSetup(ds)
	defer srv.kill()
	orc := serveOracle{hist: newHistory()}
	cl := newColdClient(b.opts.seed, apps, phases)
	sent := 0 // batches generated so far, over warm-up and window
	drive := func(c *collector, window time.Duration) {
		openLoop(realClock{}, time.Now(), 0, coldInterval, window, func(j int, due time.Time) {
			events := cl.batch(sent, int64(sent))
			sent++
			out := b.exchange(client, srv.url, events, b.traced(j))
			c.record(b, events, due, out, b.traced(j))
		})
	}
	return b.measureServe(srv, client, orc, drive)
}
