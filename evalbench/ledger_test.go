package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// Self time is a span's duration minus the union of the intervals its
// nested spans cover on the same track.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		// Track 1: a root [0,100] with children [10,30] and [20,50]
		// (overlapping: union 40) and a grandchild [12,14] inside the
		// first child. Children end, and so are recorded, first.
		{Name: "grandchild", Ts: 12, Dur: 2, Tid: 1},
		{Name: "child-a", Ts: 10, Dur: 20, Tid: 1},
		{Name: "child-b", Ts: 20, Dur: 30, Tid: 1},
		{Name: "root", Ts: 0, Dur: 100, Tid: 1},
		// Track 2 overlaps track 1 in time but is not nested in it.
		{Name: "other", Ts: 5, Dur: 90, Tid: 2},
		// Track 3: a child sharing its parent's exact interval.
		{Name: "same-child", Ts: 0, Dur: 10, Tid: 3},
		{Name: "same-parent", Ts: 0, Dur: 10, Tid: 3},
	}
	want := map[string]float64{
		"grandchild": 2, "child-a": 18, "child-b": 30, "root": 60,
		"other": 90, "same-child": 10, "same-parent": 0,
	}
	for i, got := range selfTimes(spans) {
		if w := want[spans[i].Name]; got != w {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got, w)
		}
	}
}

func TestCovered(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]float64
		want float64
	}{
		{nil, 0},
		{[][2]float64{{0, 10}}, 10},
		{[][2]float64{{20, 30}, {0, 10}}, 20},
		{[][2]float64{{0, 10}, {5, 15}, {15, 16}}, 16},
		{[][2]float64{{0, 100}, {10, 20}}, 100},
	} {
		if got := covered(c.iv); got != c.want {
			t.Errorf("covered(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

// The ratio metrics name their bases: coalescing is events per solved
// group, the fleet cache-hit ratio counts adaptive units only, the
// registry hit ratios are hits over hits+misses, and an empty base
// reads 0.
func TestPerLayerRatioBases(t *testing.T) {
	l := &ledger{
		Results: []resultDiag{
			// One task: a group of three events and a group of one.
			{Batched: 3, Adaptive: true, CacheHit: true, Task: 1},
			{Batched: 3, Adaptive: true, CacheHit: true, Task: 1},
			{Batched: 3, Adaptive: true, CacheHit: true, Task: 1},
			{Batched: 1, Adaptive: true, Task: 1},
			// A baseline probe: dispatched, but no adaptation unit.
			{Batched: 1, Task: 2},
			// A membership event: never dispatched.
			{},
		},
		Registry: []metricRow{
			{Kind: "counter", Name: "artifact.cache.hits", Count: 9},
			{Kind: "counter", Name: "artifact.cache.misses", Count: 1},
			{Kind: "counter", Name: "adapt.retune.cycles", Count: 10},
		},
	}
	m := perLayer(l)
	for name, want := range map[string]float64{
		"fleet.coalesce_ratio":               5.0 / 3, // 5 dispatched events, 3 groups
		"fleet.cache_hit_ratio":              0.75,    // 3 hits of 4 adaptive units
		"artifact.hit_ratio":                 0.9,
		"core.memo.simulate_hit_ratio":       0, // no lookups at all
		"adapt.retune.cycles_per_invocation": 0, // no invocations
	} {
		if got := m[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// Every per-layer metric named in BENCHMARK.json is derived, and nothing
// else is, so the traced output always carries exactly the listed set.
func TestPerLayerMatchesBenchmarkFile(t *testing.T) {
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &spec)
	got := perLayer(&ledger{})
	if len(got) != len(spec.PerLayer) {
		t.Errorf("perLayer derives %d metrics, BENCHMARK.json lists %d", len(got), len(spec.PerLayer))
	}
	for _, p := range spec.PerLayer {
		m, ok := got[p.Name]
		switch {
		case !ok:
			t.Errorf("BENCHMARK.json lists %s, perLayer does not derive it", p.Name)
		case m.Unit != p.Unit:
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", p.Name, m.Unit, p.Unit)
		}
	}
}

func TestDeltaRows(t *testing.T) {
	before := []metricRow{
		{Kind: "counter", Name: "c", Count: 5},
		{Kind: "timer", Name: "t", Count: 2, SumNs: 100},
		{Kind: "gauge", Name: "g", Value: 1},
	}
	after := []metricRow{
		{Kind: "counter", Name: "c", Count: 8},
		{Kind: "timer", Name: "t", Count: 5, SumNs: 400},
		{Kind: "gauge", Name: "g", Value: 7},
		{Kind: "counter", Name: "new", Count: 2},
	}
	r := indexRows(deltaRows(before, after))
	if r.count("c") != 3 || r.count("t") != 3 || r.sumS("t") != 300e-9 || r.gauge("g") != 7 || r.count("new") != 2 {
		t.Errorf("delta = %+v", r)
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatal(err)
	}
}
