package core

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
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
	opts, cfg := cacheTestConfig()
	sim, err := NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	if dir != "" {
		reg = obs.NewRegistry()
		store, err := artifact.Open(dir, artifact.Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		// Close, not just Flush: the warm run opens a fresh store on the
		// same directory and must see every cold-run write on disk.
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
