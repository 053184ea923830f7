package fleet

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
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

// testApps resolves app names, gcc and swim by default.
func testApps(t *testing.T, names ...string) []workload.App {
	t.Helper()
	if len(names) == 0 {
		names = []string{"gcc", "swim"}
	}
	var apps []workload.App
	for _, name := range names {
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

// historyTrace gives three chips a long, mixed history on their TS+ASV
// cores: every whole-app and phase unit of apps, twice, with the chip
// rotating per event and the mode (exh, fuzzy, static) every three
// events, in 24-event batches. No (chip, mode, unit) repeats, so a
// store that starts empty replays nothing within the trace.
func historyTrace(apps []workload.App) [][]Event {
	chips := []int64{501, 502, 503}
	modes := []string{ModeExh, ModeFuzzy, ModeStatic}
	var units []Event
	for _, app := range apps {
		units = append(units, Event{App: app.Name})
		for ph := range app.Phases {
			units = append(units, Event{App: app.Name, Phase: intp(ph)})
		}
	}
	var events []Event
	for _, chip := range chips {
		events = append(events, Event{At: 8, Kind: KindJoin, Class: "h", Chip: chip})
	}
	for i := 0; i < 2*len(units); i++ {
		ev := units[i%len(units)]
		ev.At, ev.Kind, ev.Class, ev.Env = int64(9+i/24), KindRun, "h", "TS+ASV"
		ev.Chip, ev.Mode = chips[i%len(chips)], modes[(i/len(chips))%len(modes)]
		events = append(events, ev)
	}
	var batches [][]Event
	for len(events) > 24 {
		batches = append(batches, events[:24])
		events = events[24:]
	}
	return append(batches, events)
}

// rerunTrace returns the run events of history once more, in the same
// batches and with the clock advanced past them, so every (chip, mode,
// unit) of the history recurs on its core after other units ran there.
func rerunTrace(history [][]Event) [][]Event {
	var batches [][]Event
	for _, batch := range history {
		var runs []Event
		for _, ev := range batch {
			if ev.Kind == KindRun {
				ev.At += 100
				runs = append(runs, ev)
			}
		}
		batches = append(batches, runs)
	}
	return batches
}

// runTrace plays testTrace, historyTrace and its rerun, over the six
// apps the repository benchmark runs, through a fresh fleet over sim and
// returns every result in emission order.
func runTrace(t *testing.T, sim *core.Simulator, workers int) []Result {
	t.Helper()
	apps := testApps(t, "gcc", "crafty", "mcf", "swim", "sixtrack", "art")
	training := adapt.DefaultTrainOptions()
	training.Examples = 60
	f, err := New(sim, Config{
		Workers:  workers,
		maxBatch: 4,
		Admission: map[string]Rate{
			"capped": {PerTick: 0, Burst: 2},
		},
		apps:     apps,
		Training: training,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	history := historyTrace(apps)
	var results []Result
	for _, batch := range slices.Concat(testTrace(), history, rerunTrace(history)) {
		if err := f.SubmitBatch(batch, func(r Result) { results = append(results, r) }); err != nil {
			t.Fatal(err)
		}
	}
	return results
}

// canonicalLines renders results as canonical JSON lines.
func canonicalLines(t *testing.T, results []Result) []string {
	t.Helper()
	lines := make([]string, len(results))
	for i, r := range results {
		blob, err := json.Marshal(r.Canonical())
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(blob)
	}
	return lines
}

// fleetDeterminismDigest is the SHA-256 of the workers=1 store-less
// canonical stream of runTrace, one JSON line per result, each ended by
// a newline, as recorded on amd64.
const fleetDeterminismDigest = "d9d065d37a77264a6a95ddccbf4ea1db131333611af3d33478e0d66afad9b6a9"

// TestFleetDeterminism is the headline contract: at a fixed seed and
// fixed event trace, canonical results are byte-identical at every
// worker count, with no store or with a store that starts empty. Each
// no-store run gets a fresh simulator, so nothing but the chips' own
// earlier units can shape a result; the history trace is long enough
// that a unit's value depends on the units its core ran before it, so
// any placement that changed that order would show, and its rerun makes
// every unit recur on its core after others ran there. The workers=1
// stream is pinned to a recorded digest (on amd64, where Go never fuses
// a multiply-add), so a recurring unit answered differently than when
// the digest was recorded fails too. A store written by the same trace
// then replays the same bytes. A bigger pool must not multiply the
// work either: every no-store run prepares as many chips, adapts as
// many phases and misses the evaluate memo as often as workers=1.
func TestFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	var want []string
	var wantWork [3]int64
	for _, workers := range []int{1, 2, 8} {
		sim := testSim(t, "")
		reg := obs.NewRegistry()
		sim.SetObs(reg)
		results := runTrace(t, sim, workers)
		got := canonicalLines(t, results)
		work := [3]int64{reg.Timer("core.chip_prep").Count(), reg.Timer("core.phase.adapt").Count(),
			reg.Counter("core.memo.evaluate_misses").Value()}
		if want == nil {
			want, wantWork = got, work
			if work[0] == 0 || work[1] == 0 || work[2] == 0 {
				t.Fatalf("workers=1 counted %d chip preps, %d phase adaptations, %d evaluate misses", work[0], work[1], work[2])
			}
			if runtime.GOARCH == "amd64" {
				h := sha256.New()
				for _, line := range got {
					h.Write([]byte(line + "\n"))
				}
				if sum := hex.EncodeToString(h.Sum(nil)); sum != fleetDeterminismDigest {
					t.Errorf("workers=1 canonical stream digest = %s, want %s", sum, fleetDeterminismDigest)
				}
			}
			// The trace must actually exercise results, errors, and
			// rejections or the sweep proves nothing.
			var okRuns, errs, rejects int
			for _, r := range results {
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
		compareLines(t, fmt.Sprintf("workers=%d", workers), got, want)
		if work != wantWork {
			t.Errorf("workers=%d: chip preps, phase adaptations, evaluate misses = %v, workers=1 counted %v", workers, work, wantWork)
		}
	}

	// A cold run fills a fresh store; a warm run on the reopened store
	// must answer every adaptive unit from it, with the same bytes.
	dir := t.TempDir()
	storeRun := func(workers int) []Result {
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sim := testSim(t, "")
		sim.SetArtifacts(store)
		return runTrace(t, sim, workers)
	}
	compareLines(t, "cold store", canonicalLines(t, storeRun(2)), want)
	warm := storeRun(8)
	compareLines(t, "warm store", canonicalLines(t, warm), want)
	for _, r := range warm {
		if r.Kind == KindRun && r.Status == StatusOK && r.Mode != ModeBaseline && !r.CacheHit {
			t.Fatalf("warm store: seq %d (%s chip %d %s) missed the cache", r.Seq, r.Mode, r.Chip, r.App)
		}
	}
}

// compareLines fails at the first line where got diverges from the
// workers=1 no-store stream.
func compareLines(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s emitted %d results, workers=1 emitted %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s diverges from workers=1 at result %d:\n  %s\n  %s", label, i, got[i], want[i])
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
	f, err := New(sim, Config{Workers: 4, apps: testApps(t)})
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

// TestNewValidatesTraining: a zero Training means the default set, and a
// set that would fail every fuzzy unit — Examples alone, with zero
// sampling ranges — stops New instead.
func TestNewValidatesTraining(t *testing.T) {
	sim := testSim(t, "")
	f, err := New(sim, Config{Workers: 1})
	if err != nil {
		t.Fatalf("zero training options: %v", err)
	}
	f.Close()
	bad := Config{Workers: 1}
	bad.Training.Examples = 60
	if f, err := New(sim, bad); err == nil {
		f.Close()
		t.Fatal("New accepted training options with zero sampling ranges")
	} else if !strings.Contains(err.Error(), "degenerate sampling ranges") {
		t.Fatalf("New: %v, want the sampling-range error", err)
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
	f, err := New(sim, Config{Workers: 2, apps: testApps(t), Obs: reg})
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
// and submit traffic while another goroutine polls Stats; under -race
// this is the concurrency audit of the ingest/worker/release machinery
// and of the class-table copy Stats takes. Baseline-mode events keep
// each unit cheap without losing any of the scheduling paths.
func TestFleetConcurrentSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency soak")
	}
	sim := testSim(t, "")
	f, err := New(sim, Config{
		Workers:   4,
		apps:      testApps(t),
		Admission: map[string]Rate{"noisy": {PerTick: 5, Burst: 10}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 6
	stopPoll := pollStats(t, f, 3)
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
	stopPoll()
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

// pollStats polls f.Stats and f.Chips from another goroutine until the
// returned stop function is called, failing t when the event count goes
// backwards or more than maxChips chips are admitted.
func pollStats(t *testing.T, f *Fleet, maxChips int) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var last int64
		for {
			select {
			case <-done:
				return
			case <-time.After(200 * time.Microsecond):
			}
			snap := f.Stats()
			if chips := f.Chips(); snap.Events < last || snap.Chips > maxChips || chips > maxChips {
				t.Errorf("stats: events %d after %d, chips %d and %d (at most %d)",
					snap.Events, last, snap.Chips, chips, maxChips)
				return
			}
			last = snap.Events
		}
	}()
	return func() { close(done); wg.Wait() }
}

// TestConcurrentBatchesIngestWhole: batches that several clients submit
// at once, of joins, baseline runs and leaves on shared chips, are each
// ingested whole, in lock order, while another goroutine polls Stats and
// Chips. Every batch's results carry one contiguous sequence block, the
// blocks partition 1..N, and membership follows sequence order: a join
// fails exactly when its chip is admitted, a run or leave exactly when it
// is not, and every served run's worker is its chip's owner — the rank
// of the chip's admitting join among all successful joins, mod Workers.
func TestConcurrentBatchesIngestWhole(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency soak")
	}
	const workers, clients, rounds = 3, 4, 6
	f, err := New(testSim(t, ""), Config{Workers: workers, apps: testApps(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stopPoll := pollStats(t, f, 3)
	batches := make([][][]Result, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				chip := int64(900 + (c+round)%3) // chips contended across clients
				events := []Event{{At: int64(round), Kind: KindJoin, Class: "a", Chip: chip}}
				for i := 0; i < 3; i++ {
					events = append(events, Event{At: int64(round), Kind: KindRun, Class: "a",
						Chip: int64(900 + (c+round+i)%3), Mode: ModeBaseline, App: "gcc"})
				}
				if round%2 == 1 {
					events = append(events, Event{At: int64(round), Kind: KindLeave, Class: "a", Chip: chip})
				}
				var got []Result
				if err := f.SubmitBatch(events, func(r Result) { got = append(got, r) }); err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(events) {
					t.Errorf("client %d round %d: %d results for %d events", c, round, len(got), len(events))
					return
				}
				batches[c] = append(batches[c], got)
			}
		}(c)
	}
	wg.Wait()
	stopPoll()
	if t.Failed() {
		return
	}

	var all []Result
	for c := range batches {
		for _, got := range batches[c] {
			for i, r := range got {
				if r.Seq != got[0].Seq+int64(i) {
					t.Fatalf("client %d: batch sequence block %d.. breaks at slot %d (seq %d)", c, got[0].Seq, i, r.Seq)
				}
			}
			all = append(all, got...)
		}
	}
	slices.SortFunc(all, func(a, b Result) int { return int(a.Seq - b.Seq) })
	owner := make(map[int64]int)
	joins := 0
	for i, r := range all {
		if r.Seq != int64(i+1) {
			t.Fatalf("sequence blocks do not partition 1..%d: position %d holds seq %d", len(all), i+1, r.Seq)
		}
		w, admitted := owner[r.Chip]
		ok := r.Status == StatusOK
		switch {
		case r.Kind == KindJoin && ok == admitted,
			r.Kind != KindJoin && ok != admitted:
			t.Fatalf("seq %d: %s chip %d status %s (%s), but the chip admitted=%v in sequence order",
				r.Seq, r.Kind, r.Chip, r.Status, r.Err, admitted)
		case r.Kind == KindJoin && ok:
			owner[r.Chip] = joins % workers
			joins++
		case r.Kind == KindLeave && ok:
			delete(owner, r.Chip)
		case r.Kind == KindRun && ok && r.Worker != w:
			t.Fatalf("seq %d: chip %d ran on worker %d, want owner %d", r.Seq, r.Chip, r.Worker, w)
		}
	}
}

// TestDepartedChipsAreFreed: a chip's cores live on the chip's entry,
// so once a chip leaves and its units drain, nothing in the
// still-running fleet keeps the entry — maps, stage models, and cores —
// alive. Chips churn through a two-worker fleet, one run per task.
func TestDepartedChipsAreFreed(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	sim := testSim(t, "")
	f, err := New(sim, Config{Workers: 2, maxBatch: 1, apps: testApps(t)})
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
	// watch finalizes the chip's entry into freed and checks that its
	// owner built the core; the entry pointer does not outlive the call.
	const chips = 3
	freed := make(chan int64, chips)
	watch := func(chip int64) {
		entry := entryOf(f, chip)
		if entry.cores[core.TSASV] == nil {
			t.Fatalf("chip %d: owner built no core", chip)
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

// TestDamagedRecordIsAMiss: a unit whose apprun record fails its
// checksum, or passes it but fails its decoder, is rebuilt, so it must be
// served with CacheHit false and counted as a miss, and the rebuilt
// payload must equal a store-less run's. Each chip runs one adaptive
// unit, so a rebuilt unit runs on a core with no history, as it does
// without a store.
func TestDamagedRecordIsAMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	apps := testApps(t)
	var events []Event
	for i := 0; i < 6; i++ {
		chip, app := int64(800+i), apps[i%len(apps)]
		events = append(events,
			Event{At: 1, Kind: KindJoin, Class: "d", Chip: chip},
			Event{At: 2, Kind: KindRun, Class: "d", Chip: chip, Env: "TS+ASV", Mode: ModeExh,
				App: app.Name, Phase: intp(i % len(app.Phases))})
	}
	serve := func(sim *core.Simulator) ([]Result, Snapshot) {
		t.Helper()
		f, err := New(sim, Config{Workers: 2, apps: apps})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var results []Result
		if err := f.SubmitBatch(events, func(r Result) { results = append(results, r) }); err != nil {
			t.Fatal(err)
		}
		return results, f.Stats()
	}
	withStore := func(dir string, reg *obs.Registry) ([]Result, Snapshot) {
		t.Helper()
		store, err := artifact.Open(dir, artifact.Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sim := testSim(t, "")
		sim.SetArtifacts(store)
		return serve(sim)
	}

	dir := t.TempDir()
	withStore(dir, nil)
	damaged := damageAppRuns(t, dir)
	reg := obs.NewRegistry()
	got, snap := withStore(dir, reg)
	want, _ := serve(testSim(t, ""))

	var runs, misses int64
	for i, r := range got {
		if r.Kind != KindRun {
			continue
		}
		if r.Status != StatusOK {
			t.Fatalf("chip %d: %s", r.Chip, r.Err)
		}
		runs++
		if !r.CacheHit {
			misses++
		}
		if *r.Run != *want[i].Run {
			t.Errorf("chip %d (hit %v): payload %+v, store-less run %+v", r.Chip, r.CacheHit, *r.Run, *want[i].Run)
		}
	}
	corrupt := reg.Counter("artifact.cache.apprun.corrupt").Value()
	if corrupt != damaged {
		t.Fatalf("%d records damaged, store counted %d corrupt", damaged, corrupt)
	}
	if misses != corrupt || snap.CacheMisses != misses || snap.CacheHits != runs-misses {
		t.Fatalf("%d corrupt records; served %d of %d runs as misses, fleet counted %d hits / %d misses",
			corrupt, misses, runs, snap.CacheHits, snap.CacheMisses)
	}
}

// damageAppRuns walks the apprun records of the store in dir and, of
// every three, flips a payload byte of the first (its checksum fails),
// breaks the payload tag of the second and re-seals its checksum (the
// record is intact, its decoder refuses it), and leaves the third. It
// returns how many records it damaged. The framing it walks is the
// artifact package's record layout: magic, kind, raw key, payload, CRC.
func damageAppRuns(t *testing.T, dir string) int64 {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "pack-*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	head := []byte("EVR2\x06apprun")
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	var seen, damaged int64
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; ; {
			i := bytes.Index(data[off:], head)
			if i < 0 {
				break
			}
			start := off + i
			at := start + len(head) + sha256.Size
			n, w := binary.Uvarint(data[at:])
			payload := data[at+w : at+w+int(n)]
			end := at + w + int(n) + 4
			switch seen % 3 {
			case 0:
				payload[len(payload)-1] ^= 0xff
				damaged++
			case 1:
				payload[0] ^= 0xff
				binary.LittleEndian.PutUint32(data[end-4:], crc32.Checksum(data[start:end-4], castagnoli))
				damaged++
			}
			seen++
			off = end
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if seen < 3 {
		t.Fatalf("found %d apprun records, want at least 3", seen)
	}
	return damaged
}

// TestSubmitBatchAllocs gates the steady-state serving path's
// allocation budget, in allocations and heap bytes per 50-event batch,
// once the pools are warm and the latency reservoirs (4096 samples per
// histogram) full: the property that keeps the serving hot path off the
// garbage collector at fleet scale. Two batches: baseline runs on one
// chip, and BenchmarkFleet/warm's exh phase events cycling over 4 chips
// and 3 phases with a store attached, which the chips' replay tables
// answer, at 1 and 8 workers. The limits are 1.2x the counts measured
// when they were set, except the baseline batch's allocation limit of
// 25, which leaves room for pool refills after a GC. They hold only
// without the race detector, whose pools drop objects at random, so
// make test also runs this test without -race.
func TestSubmitBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	const batchN = 50
	baseline := make([]Event, batchN)
	for i := range baseline {
		baseline[i] = Event{At: 2, Kind: KindRun, Class: "steady", Chip: 31337, Mode: ModeBaseline, App: "gcc"}
	}
	warm := make([]Event, batchN)
	for i := range warm {
		ph := i % 3
		warm[i] = Event{At: 2, Kind: KindRun, Chip: int64(i % 4), Env: "TS+ASV", Mode: ModeExh, App: "gcc", Phase: &ph}
	}
	for _, c := range []struct {
		name      string
		workers   int
		store     bool
		chips     []int64
		batch     []Event
		maxAllocs float64
		maxBytes  float64
	}{
		{"baseline", 2, false, []int64{31337}, baseline, 25, 1.2 * 144},
		{"warm/workers=1", 1, true, []int64{0, 1, 2, 3}, warm, 1.2 * 13, 1.2 * 496},
		{"warm/workers=8", 8, true, []int64{0, 1, 2, 3}, warm, 1.2 * 13, 1.2 * 496},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := ""
			if c.store {
				dir = t.TempDir()
			}
			f, err := New(testSim(t, dir), Config{Workers: c.workers, apps: testApps(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var joins []Event
			for _, chip := range c.chips {
				joins = append(joins, Event{At: 1, Kind: KindJoin, Class: c.batch[0].Class, Chip: chip})
			}
			if err := f.SubmitBatch(joins, nil); err != nil {
				t.Fatal(err)
			}
			var failed string
			if err := f.SubmitBatch(c.batch, func(r Result) {
				if r.Status != StatusOK && failed == "" {
					failed = r.Err
				}
			}); err != nil {
				t.Fatal(err)
			}
			if failed != "" {
				t.Fatal(failed)
			}
			submit := func() {
				if err := f.SubmitBatch(c.batch, nil); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				submit()
			}
			allocs, bytes := perRun(20, submit)
			t.Logf("steady-state SubmitBatch: %.1f allocs and %.0f B per %d-event batch", allocs, bytes, batchN)
			if !raceEnabled && (allocs > c.maxAllocs || bytes > c.maxBytes) {
				t.Fatalf("steady-state SubmitBatch allocates %.1f times and %.0f B per %d-event batch (limits %.1f and %.0f)",
					allocs, bytes, batchN, c.maxAllocs, c.maxBytes)
			}
		})
	}
}

// perRun returns the average allocations and heap bytes of one call of
// fn over runs calls, counted as testing.AllocsPerRun counts them: on
// one P, after one warm-up call, across every goroutine.
func perRun(runs int, fn func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestQueueDepthGauge: fleet.pool.queue_depth reads the tasks waiting in
// the worker queues once each. The single worker is parked inside a
// result's emit callback while another submitter queues k one-event
// tasks on k other chips; the gauge must then read k.
func TestQueueDepthGauge(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	const k = 5
	reg := obs.NewRegistry()
	f, err := New(testSim(t, ""), Config{Workers: 1, apps: testApps(t), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var joins, runs []Event
	for c := int64(0); c <= k; c++ {
		joins = append(joins, Event{Kind: KindJoin, Chip: c})
		if c > 0 {
			runs = append(runs, Event{Kind: KindRun, Chip: c, Mode: ModeBaseline, App: "gcc"})
		}
	}
	if err := f.SubmitBatch(joins, nil); err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		park := []Event{{Kind: KindRun, Chip: 0, Mode: ModeBaseline, App: "gcc"}}
		if err := f.SubmitBatch(park, func(Result) { close(parked); <-release }); err != nil {
			t.Error(err)
		}
	}()
	<-parked
	go func() {
		defer wg.Done()
		if err := f.SubmitBatch(runs, nil); err != nil {
			t.Error(err)
		}
	}()
	depth := reg.Gauge("fleet.pool.queue_depth")
	for deadline := time.Now().Add(10 * time.Second); depth.Value() < k && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	got := depth.Value()
	close(release)
	wg.Wait()
	if got != k {
		t.Fatalf("queue depth gauge = %v with %d tasks queued on a parked worker, want %d", got, k, k)
	}
}

// entryOf returns chip's membership entry (nil when not joined). Read
// its owner-only fields only between batches, once the chip's units
// have drained.
func entryOf(f *Fleet, chip int64) *chipEntry {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.members[chip]
}

// openStore opens the artifact store in dir with reg attached, closed
// when the test ends, and returns a simulator over it and the store.
func openStore(t *testing.T, dir string, reg *obs.Registry) (*core.Simulator, *artifact.Store) {
	t.Helper()
	store, err := artifact.Open(dir, artifact.Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	sim := testSim(t, "")
	sim.SetArtifacts(store)
	return sim, store
}

// TestReplayTableReadsEachUnitOnce: a warm fleet that serves every unit
// of two chips three times, in three batches, reads each (chip, unit)
// record from the store once and answers the rest from the chips'
// replay tables. Every served group still counts as a fleet cache hit,
// and every payload equals a store-less run's.
func TestReplayTableReadsEachUnitOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	apps := testApps(t, "gcc")
	chips := []int64{601, 602}
	joins := []Event{{At: 1, Kind: KindJoin, Chip: chips[0]}, {At: 1, Kind: KindJoin, Chip: chips[1]}}
	var round []Event
	for _, chip := range chips {
		for ph := -1; ph < len(apps[0].Phases); ph++ {
			ev := Event{At: 2, Kind: KindRun, Chip: chip, Env: "TS+ASV", Mode: ModeExh, App: "gcc"}
			if ph >= 0 {
				ev.Phase = intp(ph)
			}
			round = append(round, ev)
		}
	}
	const rounds = 3
	play := func(sim *core.Simulator, batches int) ([]Result, Snapshot) {
		t.Helper()
		f, err := New(sim, Config{Workers: 2, apps: apps})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var results []Result
		for i := 0; i <= batches; i++ {
			batch := round
			if i == 0 {
				batch = joins
			}
			if err := f.SubmitBatch(batch, func(r Result) { results = append(results, r) }); err != nil {
				t.Fatal(err)
			}
		}
		return results, f.Stats()
	}
	dir := t.TempDir()
	// Populate, and close the store so the warm one opens on every write.
	cold, store := openStore(t, dir, nil)
	play(cold, 1)
	store.Close()
	reg := obs.NewRegistry()
	warm, _ := openStore(t, dir, reg)
	got, snap := play(warm, rounds)
	want, _ := play(testSim(t, ""), rounds)

	if n := reg.Counter("artifact.cache.apprun.hits").Value(); n != int64(len(round)) {
		t.Fatalf("served %d distinct units %d times each, store read %d apprun records", len(round), rounds, n)
	}
	if snap.CacheHits != rounds*int64(len(round)) || snap.CacheMisses != 0 {
		t.Fatalf("fleet counted %d hits / %d misses over %d served groups", snap.CacheHits, snap.CacheMisses, rounds*len(round))
	}
	for i, r := range got {
		if r.Kind != KindRun {
			continue
		}
		if r.Status != StatusOK || !r.CacheHit {
			t.Fatalf("seq %d: status %s %s, cache hit %v", r.Seq, r.Status, r.Err, r.CacheHit)
		}
		if *r.Run != *want[i].Run {
			t.Fatalf("seq %d (chip %d phase %v): payload %+v, store-less run %+v", r.Seq, r.Chip, r.Phase, *r.Run, *want[i].Run)
		}
	}
}

// TestReplayTableLifecycle follows one unit through a cold store: the
// first request computes it (a miss), and since its core's Evaluate
// memo is complete, the unit enters the chip's replay table; the second
// and third replay from the table without reading the store. A caller
// mutating a served payload does not reach the table. A chip that
// leaves and rejoins starts with an empty table and reads the store. A
// store-less fleet answers its repeats from the table too: a cache hit,
// no new adaptation, and the first payload bit for bit.
func TestReplayTableLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	const chip = 611
	unit := Event{At: 2, Kind: KindRun, Chip: chip, Env: "TS+ASV", Mode: ModeExh, App: "gcc", Phase: intp(1)}
	serve := func(f *Fleet, events ...Event) Result {
		t.Helper()
		var last Result
		if err := f.SubmitBatch(events, func(r Result) { last = r }); err != nil {
			t.Fatal(err)
		}
		if last.Status != StatusOK {
			t.Fatalf("%s chip %d: %s", last.Kind, last.Chip, last.Err)
		}
		return last
	}
	reg := obs.NewRegistry()
	reads := reg.Counter("artifact.cache.apprun.hits")
	sim, _ := openStore(t, t.TempDir(), reg)
	f, err := New(sim, Config{Workers: 2, apps: testApps(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	serve(f, Event{At: 1, Kind: KindJoin, Chip: chip})
	step := func(label string, wantHit bool, wantReads int64) Result {
		t.Helper()
		r := serve(f, unit)
		if r.CacheHit != wantHit || reads.Value() != wantReads || len(entryOf(f, chip).replay) != 1 {
			t.Fatalf("%s: cache hit %v, %d apprun reads, %d table entries; want %v, %d, 1",
				label, r.CacheHit, reads.Value(), len(entryOf(f, chip).replay), wantHit, wantReads)
		}
		return r
	}
	computed := step("computed", false, 0)
	saved := *computed.Run
	computed.Run.FRel, computed.Run.PE = -1, -1
	replayed := step("replayed", true, 0)
	if *replayed.Run != saved {
		t.Fatalf("replay after mutating the served payload: %+v, want %+v", *replayed.Run, saved)
	}
	replayed.Run.Perf = -1
	if again := step("replayed again", true, 0); *again.Run != saved {
		t.Fatalf("second replay: %+v, want %+v", *again.Run, saved)
	}
	serve(f, Event{At: 3, Kind: KindLeave, Chip: chip}, Event{At: 3, Kind: KindJoin, Chip: chip})
	if r := step("rejoined", true, 1); *r.Run != saved {
		t.Fatalf("after rejoin: %+v, want %+v", *r.Run, saved)
	}

	bareReg := obs.NewRegistry()
	adapts := bareReg.Timer("core.phase.adapt")
	bareSim := testSim(t, "")
	bareSim.SetObs(bareReg)
	bare, err := New(bareSim, Config{Workers: 2, apps: testApps(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	serve(bare, Event{At: 1, Kind: KindJoin, Chip: chip})
	first := serve(bare, unit)
	if first.CacheHit || adapts.Count() != 1 || len(entryOf(bare, chip).replay) != 1 {
		t.Fatalf("store-less first request: cache hit %v, %d adaptations, %d table entries; want false, 1, 1",
			first.CacheHit, adapts.Count(), len(entryOf(bare, chip).replay))
	}
	if *first.Run != saved {
		t.Fatalf("store-less first request: %+v, stored run %+v", *first.Run, saved)
	}
	for i := 2; i <= 3; i++ {
		r := serve(bare, unit)
		if !r.CacheHit || adapts.Count() != 1 || *r.Run != saved {
			t.Fatalf("store-less request %d: cache hit %v, %d adaptations, payload %+v; want true, 1, %+v",
				i, r.CacheHit, adapts.Count(), *r.Run, saved)
		}
	}
}
