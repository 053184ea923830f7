package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// testSim builds one shared small-scale simulator backed by dir ("" = no
// store).
func testSim(t *testing.T, dir string) *core.Simulator {
	t.Helper()
	opts := core.DefaultOptions()
	opts.TraceLen = 6000
	sim, err := core.NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(store.Close)
		sim.SetArtifacts(store)
	}
	return sim
}

func testApps(t *testing.T) []workload.App {
	t.Helper()
	var apps []workload.App
	for _, name := range []string{"gcc", "swim"} {
		a, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	return apps
}

func intp(v int) *int { return &v }

// testTrace is the determinism sweep's fixed event stream: joins, every
// run mode (baseline, static, exh, fuzzy), whole-app and phase units,
// duplicate events that must coalesce, malformed events with
// deterministic error results, an admission-capped class, and a
// leave/rejoin cycle.
func testTrace() [][]Event {
	const env = "TS+ASV"
	return [][]Event{
		{
			{At: 1, Kind: KindJoin, Class: "a", Chip: 4242},
			{At: 1, Kind: KindJoin, Class: "b", Chip: 4243},
			{At: 1, Kind: KindJoin, Class: "b", Chip: 4243}, // duplicate join -> error
			{At: 2, Kind: KindRun, Class: "a", Chip: 4242, Mode: ModeBaseline, App: "gcc"},
			{At: 2, Kind: KindRun, Class: "b", Chip: 4243, Mode: ModeBaseline, App: "swim"},
		},
		{
			{At: 3, Kind: KindRun, Class: "a", Chip: 4242, Env: env, Mode: ModeExh, App: "gcc", Phase: intp(0)},
			{At: 3, Kind: KindRun, Class: "a", Chip: 4242, Env: env, Mode: ModeExh, App: "gcc", Phase: intp(0)}, // coalesces
			{At: 3, Kind: KindRun, Class: "b", Chip: 4243, Env: env, Mode: ModeExh, App: "swim", Phase: intp(1)},
			{At: 3, Kind: KindRun, Class: "a", Chip: 4242, Env: env, Mode: ModeExh, App: "gcc"}, // whole app
			{At: 3, Kind: KindRun, Class: "a", Chip: 4242, Env: env, Mode: ModeStatic, App: "gcc", Phase: intp(1)},
			{At: 3, Kind: KindRun, Class: "b", Chip: 4243, Env: env, Mode: ModeFuzzy, App: "swim", Phase: intp(0)},
			{At: 3, Kind: KindRun, Class: "a", Chip: 9999, Env: env, Mode: ModeExh, App: "gcc"},                  // not joined -> error
			{At: 3, Kind: KindRun, Class: "a", Chip: 4242, Env: env, Mode: ModeExh, App: "nope"},                 // unknown app -> error
			{At: 3, Kind: KindRun, Class: "a", Chip: 4242, Env: env, Mode: ModeExh, App: "gcc", Phase: intp(99)}, // bad phase -> error
			{At: 3, Kind: KindRun, Class: "a", Chip: 4242, Env: "Baseline", Mode: ModeExh, App: "gcc"},           // non-adaptive env -> error
		},
		{
			// Class "capped" has burst 2 and no refill at a frozen clock:
			// exactly the first two run events pass admission.
			{At: 4, Kind: KindRun, Class: "capped", Chip: 4242, Mode: ModeBaseline, App: "gcc"},
			{At: 4, Kind: KindRun, Class: "capped", Chip: 4242, Mode: ModeBaseline, App: "gcc"},
			{At: 4, Kind: KindRun, Class: "capped", Chip: 4242, Mode: ModeBaseline, App: "gcc"},
			{At: 4, Kind: KindRun, Class: "capped", Chip: 4242, Mode: ModeBaseline, App: "gcc"},
		},
		{
			{At: 5, Kind: KindLeave, Class: "b", Chip: 4243},
			{At: 5, Kind: KindRun, Class: "b", Chip: 4243, Env: env, Mode: ModeExh, App: "swim"}, // after leave -> error
			{At: 6, Kind: KindJoin, Class: "b", Chip: 4243},
			{At: 7, Kind: KindRun, Class: "b", Chip: 4243, Env: env, Mode: ModeExh, App: "swim", Phase: intp(0)},
		},
	}
}

// runTrace plays the fixed trace through a fresh fleet and returns the
// canonical result stream as JSON lines.
func runTrace(t *testing.T, sim *core.Simulator, workers, shards int, routing Routing) []string {
	t.Helper()
	training := adapt.DefaultTrainOptions()
	training.Examples = 60
	f, err := New(sim, Config{
		Workers:      workers,
		Routing:      routing,
		MaxBatch:     4,
		MemberShards: shards,
		Admission: map[string]Rate{
			"capped": {PerTick: 0, Burst: 2},
		},
		Apps:     testApps(t),
		Training: training,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	for _, batch := range testTrace() {
		err := f.SubmitBatch(batch, func(r Result) {
			blob, jerr := json.Marshal(r.Canonical())
			if jerr != nil {
				t.Error(jerr)
			}
			lines = append(lines, string(blob))
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return lines
}

// TestFleetDeterminism is the headline contract: at a fixed seed and
// fixed event trace, canonical results are byte-identical at every
// worker count, membership shard count, and routing policy. The
// simulator and artifact store are shared across the sweep, so the
// first (cold) run also pins warm cache replays to the same bytes.
func TestFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	sim := testSim(t, t.TempDir())
	var want []string
	wantFrom := ""
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 32} {
			for _, routing := range Routings() {
				got := runTrace(t, sim, workers, shards, routing)
				label := fmt.Sprintf("workers=%d shards=%d routing=%v", workers, shards, routing)
				if want == nil {
					want, wantFrom = got, label
					// The trace must actually exercise results, errors, and
					// rejections or the sweep proves nothing.
					var okRuns, errs, rejects int
					for _, line := range got {
						var r Result
						if err := json.Unmarshal([]byte(line), &r); err != nil {
							t.Fatal(err)
						}
						switch {
						case r.Status == StatusOK && r.Kind == KindRun:
							okRuns++
						case r.Status == StatusError:
							errs++
						case r.Status == StatusRejected:
							rejects++
						}
					}
					if okRuns < 8 || errs < 5 || rejects != 2 {
						t.Fatalf("trace coverage: ok=%d errs=%d rejects=%d", okRuns, errs, rejects)
					}
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("%s emitted %d results, %s emitted %d", label, len(got), wantFrom, len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s diverges from %s at result %d:\n  %s\n  %s",
							label, wantFrom, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFleetEmissionOrder: results arrive strictly in submission order
// with consecutive fleet-global sequence numbers.
func TestFleetEmissionOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	sim := testSim(t, "")
	f, err := New(sim, Config{Workers: 4, Apps: testApps(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events := []Event{{At: 1, Kind: KindJoin, Chip: 7}}
	for i := 0; i < 12; i++ {
		events = append(events, Event{At: 2, Kind: KindRun, Chip: 7, Mode: ModeBaseline, App: "gcc"})
	}
	var seqs []int64
	if err := f.SubmitBatch(events, func(r Result) { seqs = append(seqs, r.Seq) }); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != len(events) {
		t.Fatalf("emitted %d results for %d events", len(seqs), len(events))
	}
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("result %d has seq %d; emission is out of submission order", i, s)
		}
	}
}

// TestTokenBucket covers the admission bucket in isolation.
func TestTokenBucket(t *testing.T) {
	b := NewTokenBucket(Rate{PerTick: 2, Burst: 4})
	// Starts full at the first observed tick.
	for i := 0; i < 4; i++ {
		if !b.Allow(10) {
			t.Fatalf("spend %d of the initial burst was denied", i)
		}
	}
	if b.Allow(10) {
		t.Fatal("empty bucket allowed a spend at a frozen clock")
	}
	// Two ticks refill 4 tokens.
	for i := 0; i < 4; i++ {
		if !b.Allow(12) {
			t.Fatalf("spend %d after refill was denied", i)
		}
	}
	if b.Allow(12) {
		t.Fatal("refill exceeded the elapsed-ticks budget")
	}
	// Refill clamps at the burst.
	for i := 0; i < 4; i++ {
		if !b.Allow(1000) {
			t.Fatalf("spend %d after a long idle was denied", i)
		}
	}
	if b.Allow(1000) {
		t.Fatal("refill exceeded the burst cap")
	}
	// Time moving backwards refills nothing but still spends.
	b2 := NewTokenBucket(Rate{PerTick: 1, Burst: 1})
	if !b2.Allow(100) {
		t.Fatal("initial spend denied")
	}
	if b2.Allow(50) {
		t.Fatal("backwards time refilled the bucket")
	}
}

// TestJainFairness pins the fairness index's shape.
func TestJainFairness(t *testing.T) {
	if got := JainFairness(nil); got != 0 {
		t.Fatalf("empty fairness = %v", got)
	}
	if got := JainFairness([]float64{5, 5, 5, 5}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("even fairness = %v, want 1", got)
	}
	if got := JainFairness([]float64{1, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("single-class fairness = %v, want 0.25", got)
	}
}

// TestFleetStats: counters, batching, cache hits, and fairness surface
// in the snapshot.
func TestFleetStats(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	sim := testSim(t, t.TempDir())
	reg := obs.NewRegistry()
	f, err := New(sim, Config{Workers: 2, Apps: testApps(t), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{
		{At: 1, Kind: KindJoin, Class: "a", Chip: 4242},
		{At: 2, Kind: KindRun, Class: "a", Chip: 4242, Env: "TS+ASV", Mode: ModeExh, App: "gcc", Phase: intp(0)},
		{At: 2, Kind: KindRun, Class: "b", Chip: 4242, Env: "TS+ASV", Mode: ModeExh, App: "gcc", Phase: intp(0)},
	}
	if err := f.SubmitBatch(events, nil); err != nil {
		t.Fatal(err)
	}
	// Resubmit the run events: the artifact store now replays them.
	if err := f.SubmitBatch(events[1:], nil); err != nil {
		t.Fatal(err)
	}
	snap := f.Stats()
	f.Close()
	if snap.Events != 5 {
		t.Fatalf("events = %d, want 5", snap.Events)
	}
	if snap.Units < 2 {
		t.Fatalf("units = %d, want >= 2", snap.Units)
	}
	if snap.BatchedEvents < 1 {
		t.Fatalf("batched events = %d, want >= 1 (two compatible events must share a unit)", snap.BatchedEvents)
	}
	if snap.CacheHits < 1 {
		t.Fatalf("cache hits = %d, want >= 1 on the resubmission", snap.CacheHits)
	}
	if snap.Chips != 1 {
		t.Fatalf("chips = %d, want 1", snap.Chips)
	}
	if math.Abs(snap.Fairness-1) > 1e-12 {
		t.Fatalf("fairness = %v, want 1 (both classes served two run events)", snap.Fairness)
	}
	if reg.Gauge("fleet.pool.workers").Value() != 2 {
		t.Fatal("fleet.pool.workers gauge not published")
	}
	if snap.Classes["a"].OK != 3 || snap.Classes["b"].OK != 2 {
		t.Fatalf("class service counts: a=%d b=%d", snap.Classes["a"].OK, snap.Classes["b"].OK)
	}
}

// TestFleetConcurrentSoak hammers one fleet with concurrent join, leave,
// and submit traffic; under -race this is the concurrency audit of the
// ingest/worker/release machinery. Baseline-mode events keep each unit
// cheap without losing any of the scheduling paths.
func TestFleetConcurrentSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency soak")
	}
	sim := testSim(t, "")
	f, err := New(sim, Config{
		Workers:   4,
		Routing:   LeastLoaded,
		Apps:      testApps(t),
		Admission: map[string]Rate{"noisy": {PerTick: 5, Burst: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	emitted := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			chip := int64(100 + c%3) // chips contended across clients
			class := "noisy"
			if c%2 == 0 {
				class = fmt.Sprintf("client-%d", c)
			}
			for round := 0; round < 8; round++ {
				events := []Event{
					{At: int64(round), Kind: KindJoin, Class: class, Chip: chip},
				}
				for i := 0; i < 4; i++ {
					events = append(events, Event{
						At: int64(round), Kind: KindRun, Class: class, Chip: chip,
						Mode: ModeBaseline, App: "gcc",
					})
				}
				events = append(events, Event{At: int64(round), Kind: KindLeave, Class: class, Chip: chip})
				n := 0
				if err := f.SubmitBatch(events, func(Result) { n++ }); err != nil {
					t.Error(err)
					return
				}
				if n != len(events) {
					t.Errorf("client %d round %d: %d results for %d events", c, round, n, len(events))
				}
				mu.Lock()
				emitted += n
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	f.Close()
	if got := f.stats.events.Load(); int(got) != emitted {
		t.Fatalf("stats counted %d events, emitted %d", got, emitted)
	}
	// Close is idempotent and post-close submissions fail cleanly.
	f.Close()
	if err := f.SubmitBatch([]Event{{Kind: KindJoin, Chip: 1}}, nil); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestDepartedChipsAreFreed: each worker's views of a chip live on the
// chip's entry, so once a chip leaves and its units drain, nothing in
// the still-running fleet keeps the entry — maps, stage models, cores,
// and views — alive. Chips churn through a two-worker round-robin
// fleet, one run per task, so both workers build views of every chip.
func TestDepartedChipsAreFreed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	sim := testSim(t, "")
	f, err := New(sim, Config{Workers: 2, Routing: RoundRobin, MaxBatch: 1, Apps: testApps(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	submit := func(events ...Event) {
		t.Helper()
		if err := f.SubmitBatch(events, func(r Result) {
			if r.Status != StatusOK {
				t.Errorf("%s chip %d: %s", r.Kind, r.Chip, r.Err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// watch finalizes the chip's entry into freed and checks that every
	// worker built a view; the entry pointer does not outlive the call.
	const chips = 3
	freed := make(chan int64, chips)
	watch := func(chip int64) {
		sh := f.shardFor(chip)
		sh.mu.RLock()
		entry := sh.m[chip]
		sh.mu.RUnlock()
		for w, views := range entry.views {
			if views[core.TSASV] == nil {
				t.Fatalf("chip %d: worker %d built no view", chip, w)
			}
		}
		runtime.SetFinalizer(entry, func(e *chipEntry) { freed <- e.seed })
	}
	for c := int64(0); c < chips; c++ {
		chip := 700 + c
		submit(Event{At: c, Kind: KindJoin, Chip: chip})
		for ph := 0; ph < 2; ph++ {
			submit(Event{At: c, Kind: KindRun, Chip: chip, Env: "TS+ASV", Mode: ModeExh, App: "gcc", Phase: intp(ph)},
				Event{At: c, Kind: KindRun, Chip: chip, Env: "TS+ASV", Mode: ModeExh, App: "swim", Phase: intp(ph)})
		}
		watch(chip)
		submit(Event{At: c, Kind: KindLeave, Chip: chip})
	}
	f.bg.Wait() // every leave has released its handle
	deadline := time.Now().Add(10 * time.Second)
	for got := 0; got < chips; {
		runtime.GC()
		select {
		case <-freed:
			got++
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d departed chips still reachable after leave, drain, and GC", chips-got, chips)
			}
		}
	}
}

// TestSubmitBatchAllocs gates the steady-state ingest path's allocation
// budget: once the pools and latency reservoirs are warm, a 50-event
// baseline-run batch must stay within a small constant allocation count
// — the property that keeps the serving hot path off the garbage
// collector at fleet scale.
func TestSubmitBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	sim := testSim(t, "")
	f, err := New(sim, Config{Workers: 2, Apps: testApps(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const batchN = 50
	batch := make([]Event, 0, batchN+1)
	batch = append(batch, Event{At: 1, Kind: KindJoin, Class: "steady", Chip: 31337})
	for i := 0; i < batchN; i++ {
		batch = append(batch, Event{At: 2, Kind: KindRun, Class: "steady", Chip: 31337,
			Mode: ModeBaseline, App: "gcc"})
	}
	if err := f.SubmitBatch(batch, nil); err != nil {
		t.Fatal(err)
	}
	steady := batch[1:]
	// Warm the scratch pools and fill the latency reservoirs (4096
	// samples per histogram shard) so the measured loop sees the true
	// steady state.
	for i := 0; i < 200; i++ {
		if err := f.SubmitBatch(steady, nil); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := f.SubmitBatch(steady, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("steady-state SubmitBatch: %.1f allocs per %d-event batch", avg, batchN)
	// Budget: the batch's done channel, the unit's result payload, and a
	// little slack for pool refills after a GC — far under one alloc per
	// event (the old path paid ~14 per event).
	if limit := 25.0; avg > limit {
		t.Fatalf("steady-state SubmitBatch allocates %.1f times per %d-event batch (limit %.0f)",
			avg, batchN, limit)
	}
}
