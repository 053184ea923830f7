package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/floorplan"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/workload"
)

// cacheTestConfig is a small but full-stack experiment: both workload
// classes (Static needs an Int and an FP app), one adaptive environment,
// and the Static + Fuzzy-Dyn modes so chips, profiles, AND trained
// solvers all flow through the store.
func cacheTestConfig() (Options, ExperimentConfig) {
	opts := DefaultOptions()
	opts.TraceLen = 6000
	cfg := DefaultExperimentConfig()
	cfg.Chips = 1
	cfg.SeedBase = 4242
	cfg.Apps = []string{"gcc", "swim"}
	cfg.Envs = []Environment{TSASV}
	cfg.Modes = []Mode{Static, FuzzyDyn}
	cfg.Training.Examples = 60
	cfg.Workers = 2
	return opts, cfg
}

// runSummaryWithCache runs the experiment against dir ("" = no cache) and
// returns the serialized summary plus the run's store metrics registry
// (nil counters read as zero for the uncached case).
func runSummaryWithCache(t *testing.T, dir string) (summary []byte, reg *obs.Registry) {
	t.Helper()
	_, cfg := cacheTestConfig()
	return runSummaryIn(t, dir, cfg)
}

// runSummaryIn is runSummaryWithCache for experiment cfg; with a store,
// the registry also receives the simulator's own metrics.
func runSummaryIn(t *testing.T, dir string, cfg ExperimentConfig) (summary []byte, reg *obs.Registry) {
	t.Helper()
	opts, _ := cacheTestConfig()
	sim, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		reg = obs.NewRegistry()
		sim.SetObs(reg)
		store, err := artifact.Open(dir, artifact.Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		// Close, as the CLIs do: it saves the index the warm run's fresh
		// store on the same directory opens.
		defer store.Close()
		sim.SetArtifacts(store)
	}
	sum, err := sim.RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	return blob, reg
}

// TestArtifactCacheColdWarmGolden is the determinism contract of the
// artifact store: a cold run (empty cache), a warm run (populated cache),
// and an uncached run of the same experiment must be byte-identical, and
// the warm run must actually hit the cache instead of rebuilding.
func TestArtifactCacheColdWarmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	dir := t.TempDir()
	cold, coldReg := runSummaryWithCache(t, dir)
	coldHits := coldReg.Counter("artifact.cache.hits").Value()
	if coldReg.Counter("artifact.cache.misses").Value() == 0 {
		t.Fatal("cold run reported no misses; the store is not being consulted")
	}
	// A cold run builds every artifact it reads, so it should not hit; the
	// bound tolerates one hit per chip, and anything beyond that means the
	// cache was not actually empty.
	if _, cfg := cacheTestConfig(); coldHits > int64(cfg.Chips) {
		t.Fatalf("cold run reported %d hits from an empty cache", coldHits)
	}
	warm, warmReg := runSummaryWithCache(t, dir)
	if warmReg.Counter("artifact.cache.hits").Value() == 0 {
		t.Fatal("warm run reported no hits")
	}
	if n := warmReg.Counter("artifact.cache.misses").Value(); n != 0 {
		t.Fatalf("warm run rebuilt %d artifacts; the cache is not keying stably", n)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold and warm summaries differ:\n cold %s\n warm %s", cold, warm)
	}
	uncached, _ := runSummaryWithCache(t, "")
	if !bytes.Equal(cold, uncached) {
		t.Fatalf("cached and uncached summaries differ:\n cached   %s\n uncached %s", cold, uncached)
	}
}

// TestWarmSummaryReadsNoPETables: a summary whose every unit replays
// from the store never misses a PE table, so it reads no petables record
// and its chip's table store stays unallocated: no column is built or
// imported.
func TestWarmSummaryReadsNoPETables(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	dir := t.TempDir()
	_, coldReg := runSummaryWithCache(t, dir)
	if coldReg.Counter("adapt.pe.built_columns").Value() == 0 {
		t.Fatal("the cold run built no PE table column")
	}
	_, warmReg := runSummaryWithCache(t, dir)
	if n := warmReg.Counter("artifact.cache.misses").Value(); n != 0 {
		t.Fatalf("warm run rebuilt %d artifacts", n)
	}
	for _, name := range []string{"artifact.cache.petables.hits", "artifact.cache.petables.misses",
		"adapt.pe.imported_columns", "adapt.pe.built_columns"} {
		if n := warmReg.Counter(name).Value(); n != 0 {
			t.Errorf("%s = %d in a fully warm run, want 0", name, n)
		}
	}
}

// fileState is one store file's bytes and modification time.
type fileState struct {
	data  string
	mtime time.Time
}

// storeFiles reads every file of a store directory.
func storeFiles(t *testing.T, dir string) map[string]fileState {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]fileState, len(des))
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[de.Name()] = fileState{data: string(data), mtime: info.ModTime()}
	}
	return files
}

// TestWarmSummaryReadsOnlyAnswers: a fully warm summary over all three
// modes reads the records that answer it and nothing it would need to
// compute them. It reads no solver record, so no fuzzy controllers are
// loaded (no core.fuzzy_train sample), and recomputes no anchor (no
// core.phase.eval sample). It reads exactly one apprun record per unit,
// plus one Baseline record per (chip, app) and one NoVar record per app,
// and its store closes without touching the directory: every file keeps
// its bytes and mtime.
func TestWarmSummaryReadsOnlyAnswers(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	_, cfg := cacheTestConfig()
	cfg.Chips = 2
	cfg.Modes = []Mode{Static, FuzzyDyn, ExhDyn}
	dir := t.TempDir()
	cold, _ := runSummaryIn(t, dir, cfg)
	before := storeFiles(t, dir)
	warm, reg := runSummaryIn(t, dir, cfg)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold and warm summaries differ:\n cold %s\n warm %s", cold, warm)
	}
	units := cfg.Chips * len(cfg.Envs) * len(cfg.Modes) * len(cfg.Apps)
	anchors := cfg.Chips*len(cfg.Apps) + len(cfg.Apps)
	for _, c := range []struct {
		name string
		want int
	}{
		{"artifact.cache.apprun.hits", units + anchors},
		{"artifact.cache.misses", 0},
		{"artifact.cache.solver.hits", 0},
		{"artifact.cache.solver.misses", 0},
	} {
		if n := reg.Counter(c.name).Value(); n != int64(c.want) {
			t.Errorf("%s = %d, want %d", c.name, n, c.want)
		}
	}
	for _, name := range []string{"core.fuzzy_train", "core.phase.eval"} {
		if n := reg.Timer(name).Count(); n != 0 {
			t.Errorf("%s recorded %d samples in a fully warm run", name, n)
		}
	}
	after := storeFiles(t, dir)
	if len(after) != len(before) {
		t.Errorf("the warm run left %d files, the cold one %d", len(after), len(before))
	}
	for name, b := range before {
		switch a, ok := after[name]; {
		case !ok:
			t.Errorf("%s: removed by the warm run", name)
		case a.data != b.data:
			t.Errorf("%s: rewritten by the warm run", name)
		case !a.mtime.Equal(b.mtime):
			t.Errorf("%s: mtime moved from %v to %v", name, b.mtime, a.mtime)
		}
	}
}

// TestSummaryUpgradesOlderStore: a store written before fuzzy units were
// named by their solver record key and the anchors were stored holds
// every record a summary reads but its fuzzy apprun and anchor records.
// Served from such a store, a summary misses exactly those, writes each
// once, and matches the cold summary bit for bit; the next run is fully
// warm. The older store is a cold run's records less those two sets.
func TestSummaryUpgradesOlderStore(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	opts, cfg := cacheTestConfig()
	cfg.Chips = 2
	cfg.Modes = []Mode{Static, FuzzyDyn, ExhDyn}
	_, apps, err := cfg.resolve()
	if err != nil {
		t.Fatal(err)
	}
	full := t.TempDir()
	cold, _ := runSummaryIn(t, full, cfg)

	sim, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	from, err := artifact.Open(full, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer from.Close()
	sim.SetArtifacts(from)
	older := t.TempDir()
	to, err := artifact.Open(older, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	copyRecord := func(kind artifact.Kind, key string) []byte {
		t.Helper()
		var payload []byte
		if !from.Get(kind, key, func(p []byte) error { payload = bytes.Clone(p); return nil }) {
			t.Fatalf("the cold run stored no %s record under %s", kind.Name, key)
		}
		to.Put(kind, key, payload)
		return payload
	}
	for ci := 0; ci < cfg.Chips; ci++ {
		seed := cfg.SeedBase + int64(ci)
		copyRecord(chipKind, sim.chipKey(seed))
		copyRecord(petableKind, sim.petableKey(seed))
		for _, env := range cfg.Envs {
			ecfg := env.coreConfig()
			copyRecord(solverKind, sim.solverKey(ecfg, []int64{seed}, cfg.Training))
			for _, app := range apps {
				var pt adapt.OperatingPoint
				if err := decodePoint(copyRecord(staticptKind, sim.staticPointKey(seed, ecfg, app.Class, apps)), &pt, int(floorplan.NumSubsystems)); err != nil {
					t.Fatal(err)
				}
				copyRecord(apprunKind, sim.appRunKey(seed, ecfg, app, Static, "", &pt, -1))
				copyRecord(apprunKind, sim.appRunKey(seed, ecfg, app, ExhDyn, "exh", nil, -1))
			}
		}
	}
	for _, app := range apps {
		for _, ph := range app.Phases {
			copyRecord(profileKind, sim.profileKey(app, ph, profileSeed(app.Name+app.Trace, ph.Index)))
		}
	}
	to.Close()

	upgraded, reg := runSummaryIn(t, older, cfg)
	if !bytes.Equal(cold, upgraded) {
		t.Fatalf("the upgraded summary differs from the cold one:\n cold     %s\n upgraded %s", cold, upgraded)
	}
	fuzzy := cfg.Chips * len(cfg.Envs) * len(apps)
	anchors := cfg.Chips*len(apps) + len(apps)
	if n := reg.Counter("artifact.cache.apprun.misses").Value(); n != int64(fuzzy+anchors) {
		t.Errorf("apprun misses = %d, want %d fuzzy units and %d anchors", n, fuzzy, anchors)
	}
	if n := reg.Counter("artifact.cache.misses").Value(); n != int64(fuzzy+anchors) {
		t.Errorf("misses = %d, want only the %d apprun misses", n, fuzzy+anchors)
	}
	warm, reg := runSummaryIn(t, older, cfg)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("the next summary differs from the cold one:\n cold %s\n warm %s", cold, warm)
	}
	if n := reg.Counter("artifact.cache.misses").Value(); n != 0 {
		t.Errorf("the run after the upgrade missed %d records", n)
	}
}

// TestWarmSummaryAllocs bounds what a fully warm summary allocates: a
// fresh simulator, the store's open, every unit read from the store,
// and its close. A warm run decodes what it reads and rebuilds nothing,
// so a read path that began copying, re-encoding or rebuilding would
// show here. The limit is 1.2x the 979 allocations measured when it was
// last set, once the warm run stopped reading solvers and recomputing
// the anchors; the race detector's extra allocations (about 1,120) stay
// under it.
func TestWarmSummaryAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	opts, cfg := cacheTestConfig()
	dir := t.TempDir()
	runSummaryWithCache(t, dir)
	allocs := testing.AllocsPerRun(5, func() {
		sim, err := NewSimulator(opts)
		if err != nil {
			t.Fatal(err)
		}
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sim.SetArtifacts(store)
		if _, err := sim.RunSummary(cfg); err != nil {
			t.Fatal(err)
		}
		store.Close()
	})
	t.Logf("a warm summary allocates %.0f times", allocs)
	if limit := 1.2 * 979; allocs > limit {
		t.Fatalf("a warm summary allocates %.0f times (limit %.0f)", allocs, limit)
	}
}

// TestPartlyWarmSummaryImportsTables: a store that holds the chip's PE
// tables but lacks one apprun record reruns that unit alone. The chip's
// first table miss imports the stored tables before any column is built,
// the summary matches the cold one bit for bit, and ReleaseChip writes
// the tables back only when the rerun built columns the record lacked.
// The dropped unit is the first its core solves, cold and warm alike.
func TestPartlyWarmSummaryImportsTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	opts, cfg := cacheTestConfig()
	cfg.Modes = []Mode{ExhDyn}
	dir := t.TempDir()
	cold, _ := runSummaryIn(t, dir, cfg)

	columns := func(tabs []adapt.PETableSlot) int64 {
		n := 0
		for _, tb := range tabs {
			n += bits.OnesCount8(tb.Mask)
		}
		return int64(n)
	}
	// edit opens the store, makes the first app's unit undecodable (a
	// rerun, like a missing record), optionally replaces the chip's
	// tables, and returns the tables the store then holds.
	edit := func(replace []adapt.PETableSlot) []adapt.PETableSlot {
		t.Helper()
		sim, err := NewSimulator(opts)
		if err != nil {
			t.Fatal(err)
		}
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sim.SetArtifacts(store)
		app, err := workload.ByName(cfg.Apps[0])
		if err != nil {
			t.Fatal(err)
		}
		store.Put(apprunKind, sim.appRunKey(cfg.SeedBase, cfg.Envs[0].coreConfig(), app, ExhDyn, "exh", nil, -1), []byte{0})
		if replace != nil {
			store.Put(petableKind, sim.petableKey(cfg.SeedBase), encodePETables(replace))
		}
		return sim.loadPETables(cfg.SeedBase)
	}

	stored := edit(nil)
	if len(stored) < 2 {
		t.Fatalf("the cold run stored %d PE tables", len(stored))
	}
	warm, reg := runSummaryIn(t, dir, cfg)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("rerunning one unit over stored tables changed the summary:\n cold %s\n warm %s", cold, warm)
	}
	if n := reg.Counter("artifact.cache.apprun.misses").Value(); n != 1 {
		t.Fatalf("%d apprun misses, want the 1 dropped unit", n)
	}
	if got, want := reg.Counter("adapt.pe.imported_columns").Value(), columns(stored); got != want {
		t.Fatalf("imported %d PE columns, the record holds %d", got, want)
	}
	if n := reg.Counter("adapt.pe.built_columns").Value(); n != 0 {
		t.Fatalf("built %d PE columns the record already held", n)
	}
	if n := reg.Counter("artifact.cache.bytes").Value(); n >= int64(len(encodePETables(stored))) {
		t.Fatalf("the run persisted %d bytes; the tables were written back with nothing new", n)
	}

	half := stored[:len(stored)/2]
	after := edit(half)
	if columns(after) != columns(half) {
		t.Fatal("the store did not take the reduced tables")
	}
	warm, reg = runSummaryIn(t, dir, cfg)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("rerunning one unit over partial tables changed the summary:\n cold %s\n warm %s", cold, warm)
	}
	imported, built := reg.Counter("adapt.pe.imported_columns").Value(), reg.Counter("adapt.pe.built_columns").Value()
	if imported != columns(half) || built == 0 {
		t.Fatalf("imported %d of %d stored PE columns and built %d", imported, columns(half), built)
	}
	if written := edit(nil); columns(written) != imported+built {
		t.Fatalf("the tables written back hold %d columns, want %d imported + %d built", columns(written), imported, built)
	}
}

// TestArtifactCacheJSONChipRebuilt: a packed store whose chip records
// hold JSON payloads, as the older layout's read-through wrote them,
// rebuilds each chip through the corrupt-record path. The summary is
// byte-identical to an uncached run, every chip counts corrupt once, and
// the rebuilt records serve the next run without a miss.
func TestArtifactCacheJSONChipRebuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	opts, cfg := cacheTestConfig()
	dir := t.TempDir()
	fresh, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for ci := 0; ci < cfg.Chips; ci++ {
		seed := cfg.SeedBase + int64(ci)
		key, err := artifact.Key(chipKind, opts.Varius, seed)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := json.Marshal(fresh.Chip(seed))
		if err != nil {
			t.Fatal(err)
		}
		store.Put(chipKind, key, payload)
	}
	store.Close()

	rebuilt, reg := runSummaryWithCache(t, dir)
	if n := reg.Counter("artifact.cache.chip.corrupt").Value(); n != int64(cfg.Chips) {
		t.Fatalf("chip corrupt = %d, want %d", n, cfg.Chips)
	}
	uncached, _ := runSummaryWithCache(t, "")
	if !bytes.Equal(rebuilt, uncached) {
		t.Fatalf("rebuilt and uncached summaries differ:\n rebuilt  %s\n uncached %s", rebuilt, uncached)
	}
	warm, warmReg := runSummaryWithCache(t, dir)
	if n := warmReg.Counter("artifact.cache.misses").Value(); n != 0 {
		t.Fatalf("next run rebuilt %d artifacts", n)
	}
	if !bytes.Equal(rebuilt, warm) {
		t.Fatal("summary changed between the rebuilding run and the next")
	}
}

// TestHostileStaticPointRebuilt: a CRC-valid staticpt record holding a
// point the chip's core cannot evaluate, stored under both class keys,
// is rebuilt as corrupt, and the Static summary matches an uncached
// run. The points are the one with empty arrays, which would index past
// them in adapt's evaluate, one with a NaN body bias and one with an
// unknown queue size.
func TestHostileStaticPointRebuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	opts, cfg := cacheTestConfig()
	cfg.Modes = []Mode{Static}
	_, apps, err := cfg.resolve()
	if err != nil {
		t.Fatal(err)
	}
	uncached, _ := runSummaryIn(t, "", cfg)
	n := int(floorplan.NumSubsystems)
	nan := adapt.OperatingPoint{FCore: 1, VddV: make([]float64, n), VbbV: make([]float64, n)}
	nan.VbbV[1] = math.NaN()
	queue := adapt.OperatingPoint{FCore: 1, VddV: make([]float64, n), VbbV: make([]float64, n), Queue: 7}
	for _, c := range []struct {
		name  string
		point adapt.OperatingPoint
	}{{"empty", adapt.OperatingPoint{FCore: 1}}, {"nan", nan}, {"queue", queue}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			sim, err := NewSimulator(opts)
			if err != nil {
				t.Fatal(err)
			}
			store, err := artifact.Open(dir, artifact.Options{})
			if err != nil {
				t.Fatal(err)
			}
			sim.SetArtifacts(store)
			for _, class := range []workload.Class{workload.Int, workload.FP} {
				key := sim.staticPointKey(cfg.SeedBase, cfg.Envs[0].coreConfig(), class, apps)
				store.Put(staticptKind, key, encodePoint(c.point))
			}
			store.Close()
			got, reg := runSummaryIn(t, dir, cfg)
			if n := reg.Counter("artifact.cache.staticpt.corrupt").Value(); n != 2 {
				t.Fatalf("staticpt corrupt = %d, want 2", n)
			}
			if !bytes.Equal(got, uncached) {
				t.Fatalf("rebuilt and uncached summaries differ:\n rebuilt  %s\n uncached %s", got, uncached)
			}
		})
	}
}

// TestColdCacheOverhead bounds the write-path tax: a cold run that
// populates the store (encodes, appends, flushes, closes) must stay
// within 10% of the uncached wall time, plus a small absolute slack that
// damps scheduler noise at this test's scale. Min-of-2 on both sides
// filters one-off stalls.
func TestColdCacheOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	run := func(dir string) time.Duration {
		start := time.Now()
		runSummaryWithCache(t, dir)
		return time.Since(start)
	}
	uncached, cold := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 2; i++ {
		if d := run(""); d < uncached {
			uncached = d
		}
		if d := run(t.TempDir()); d < cold {
			cold = d
		}
	}
	limit := uncached + uncached/10 + 300*time.Millisecond
	t.Logf("uncached %v, cold-with-cache %v (limit %v)", uncached, cold, limit)
	if cold > limit {
		t.Fatalf("cold cache overhead: %v with cache vs %v uncached (limit %v)", cold, uncached, limit)
	}
}

// TestCachedChipMatchesGenerated: a chip loaded through the store is
// byte-identical to a freshly generated one.
func TestCachedChipMatchesGenerated(t *testing.T) {
	opts, _ := cacheTestConfig()
	fresh, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	cached.SetArtifacts(store)
	const seed = 31
	want, err := json.Marshal(fresh.Chip(seed))
	if err != nil {
		t.Fatal(err)
	}
	cached.Chip(seed) // populate
	got, err := json.Marshal(cached.Chip(seed))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("cache-loaded chip differs from a generated one")
	}
}

// TestTrainFuzzyCachedRoundTrip: a solver loaded from the store predicts
// identically to the solver that was trained — including the freqBias and
// minBiasComp correction terms, which the serialization must carry.
func TestTrainFuzzyCachedRoundTrip(t *testing.T) {
	opts, cfg := cacheTestConfig()
	sim, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	sim.SetArtifacts(store)
	seed := cfg.SeedBase
	chip := sim.Chip(seed)
	core1, err := sim.BuildCore(chip, TSASV)
	if err != nil {
		t.Fatal(err)
	}
	trained, err := sim.TrainFuzzyCached([]*adapt.Core{core1}, []int64{seed}, cfg.Training)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := sim.TrainFuzzyCached([]*adapt.Core{core1}, []int64{seed}, cfg.Training)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(trained)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("cache-loaded solver serializes differently from the trained one")
	}
	if loaded == trained {
		t.Fatal("the second call returned the trained solver, not a decoded copy")
	}
}

// runCached runs one experiment closure against dir ("" = no cache) and
// returns its serialized result plus the run's store registry.
func runCached(t *testing.T, dir string, run func(*Simulator) (any, error)) ([]byte, *obs.Registry) {
	t.Helper()
	opts, _ := cacheTestConfig()
	sim, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	var reg *obs.Registry
	if dir != "" {
		reg = obs.NewRegistry()
		store, err := artifact.Open(dir, artifact.Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sim.SetArtifacts(store)
	}
	out, err := run(sim)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return blob, reg
}

// coldWarmGolden drives the cold/warm/uncached contract for one
// experiment and asserts the named artifact kind is what the warm run
// replays from.
func coldWarmGolden(t *testing.T, kind string, units int64, run func(*Simulator) (any, error)) {
	t.Helper()
	dir := t.TempDir()
	cold, coldReg := runCached(t, dir, run)
	if n := coldReg.Counter("artifact.cache." + kind + ".misses").Value(); n != units {
		t.Fatalf("cold run built %d %s units, want %d", n, kind, units)
	}
	warm, warmReg := runCached(t, dir, run)
	if n := warmReg.Counter("artifact.cache." + kind + ".hits").Value(); n != units {
		t.Fatalf("warm run replayed %d %s units, want %d", n, kind, units)
	}
	if n := warmReg.Counter("artifact.cache.misses").Value(); n != 0 {
		t.Fatalf("warm run rebuilt %d artifacts; the %s key is unstable", n, kind)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cold and warm %s results differ:\n cold %s\n warm %s", kind, cold, warm)
	}
	uncached, _ := runCached(t, "", run)
	if !bytes.Equal(cold, uncached) {
		t.Fatalf("cached and uncached %s results differ:\n cached   %s\n uncached %s", kind, cold, uncached)
	}
}

// TestOutcomesCacheColdWarmGolden: the Figure 13 outcome sweep caches one
// outcomes@1 unit per (config, chip), and a warm run replays the counts
// byte-identically without re-running the controller.
func TestOutcomesCacheColdWarmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	_, cfg := cacheTestConfig()
	units := int64(len(Figure13Configs()) * cfg.Chips)
	coldWarmGolden(t, "outcomes", units, func(sim *Simulator) (any, error) {
		return sim.RunOutcomes(cfg)
	})
}

// TestTable2CacheColdWarmGolden: the Table 2 accuracy sweep caches one
// table2@1 unit per (environment, chip); its key carries the pre-drawn
// query set, so the replay is exact.
func TestTable2CacheColdWarmGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiment")
	}
	_, cfg := cacheTestConfig()
	units := int64(4 * cfg.Chips) // the four Table 2 environments
	coldWarmGolden(t, "table2", units, func(sim *Simulator) (any, error) {
		return sim.RunTable2(cfg)
	})
}

// TestArtifactKeysPinned: for fixed inputs, every artifact kind keys to
// the value recorded here. A key that moves orphans every store written
// before the change (each entry turns into a silent miss), so a change to
// key material must be deliberate: bump the kind's Version and re-record.
func TestArtifactKeysPinned(t *testing.T) {
	opts, cfg := cacheTestConfig()
	sim, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	store, err := artifact.Open(t.TempDir(), artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(store.Close)
	sim.SetArtifacts(store)
	seed := cfg.SeedBase
	_, apps, err := cfg.resolve()
	if err != nil {
		t.Fatal(err)
	}
	gcc := apps[0]
	tsasv := TSASV.coreConfig()
	static := adapt.OperatingPoint{
		FCore: 1.1,
		VddV:  []float64{1.0, 1.05},
		VbbV:  []float64{0, -0.1},
		Queue: tech.QueueThreeQuarter,
		FU:    tech.FULowSlope,
	}
	queries := []t2Query{{TH: 330, Alpha: 0.5, RhoMult: 1, FMult: 1.1}}
	for _, c := range []struct {
		name, got, want string
	}{
		{"chip", sim.chipKey(seed),
			"5f5d177ddd58f1e21907cfce77f458749bf900c3db114a9bc6278822658151e4"},
		{"profile", sim.profileKey(gcc, gcc.Phases[0], profileSeed(gcc.Name, gcc.Phases[0].Index)),
			"6a1a6cc46610611698fbced8a3918be2580b2f1776a52053c701702df8b5ab37"},
		{"apprun/app", sim.appRunKey(seed, tsasv, gcc, Static, "", &static, -1),
			"1bc075fac0f846dfce8b7ad6bd62c58d81378b65d30dcdd642798d1343507169"},
		{"apprun/phase", sim.appRunKey(seed, tsasv, gcc, FuzzyDyn, "fp", nil, 1),
			"0c3d3de1dd7355e8fa065196720e4a2d7856bc34fdd9b663b78e0f4c39ea9556"},
		{"staticpt", sim.staticPointKey(seed, tsasv, workload.Int, apps),
			"8d85c61f07a12862f4660ca480e6376d724c909527f9e6486a7078ab08761a09"},
		{"solver", sim.solverKey(tsasv, []int64{seed}, cfg.Training),
			"f8e24e20a1f04a079ec73151d547760f084ccdee7300c6113ea818f96d9ffbc6"},
		{"outcomes", sim.outcomesKey(seed, tsasv, "fp", apps),
			"73dc218acd98a6dec1bc14732a9fe26403fe4da0811fd139fb0a24743c26c3c6"},
		{"table2", sim.table2Key(seed, tsasv, "fp", queries),
			"2429300af35b40fb7c94e6c25d2f01e46f35d80e3b00c431862ee0044d43b6b1"},
		{"petables", sim.petableKey(seed),
			"6ffda4a27428d4c73607ef3294a11950fb96790aabb0c1d12e4a918e5e954407"},
		{"apprun/anchor", sim.anchorKey(seed, Baseline, gcc, 0.78),
			"e3578543dd5049a369405bc9ed33eac33e1d061ae7faa23c6cf6b9e39f15f148"},
	} {
		if c.got != c.want {
			t.Errorf("%s key = %s, want %s", c.name, c.got, c.want)
		}
	}
	// TraceArtifact is also tracegen's entry point; check what it stores.
	if _, err := TraceArtifact(store, genSpec(), seed); err != nil {
		t.Fatal(err)
	}
	const traceKey = "455ecba477d1720149507ca111b0ac31a88a6c23fad107a85d10d3a10e8b2b94"
	if !store.Get(traceKind, traceKey, func([]byte) error { return nil }) {
		t.Errorf("trace: no entry under the pinned key %s", traceKey)
	}
}
