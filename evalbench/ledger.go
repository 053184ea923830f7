package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// ledger is everything a traced run records, written to one JSON file at
// the end of the run; every per-layer metric is derived from the file
// alone (perLayer), never from live state.
type ledger struct {
	Env runEnv `json:"env"`
	// Spans are the harness's spans around each call into the system, as
	// obs.Tracer writes them (Chrome trace events: name, ts and dur in
	// µs, tid per root span and its children).
	Spans json.RawMessage `json:"spans"`
	// Registry is the program's obs registry over the traced part of the
	// run: the in-process snapshot (fig workloads) or the delta of
	// evalserve's GET /v1/metrics across the traced window.
	Registry []metricRow `json:"registry"`
	// Reps is the number of traced experiments (fig workloads); per-run
	// figures divide the registry totals by it. Serve workloads leave it
	// 0 and report window totals.
	Reps int `json:"reps"`
	// WindowS is the traced window in seconds (serve workloads).
	WindowS float64 `json:"window_s"`
	// Results holds every received result's execution diagnostics and
	// Batches every request's timings (serve workloads).
	Results []resultDiag `json:"results,omitempty"`
	Batches []batchDiag  `json:"batches,omitempty"`
	// Encoded is how many results the AppendJSON span re-encoded.
	Encoded int `json:"encoded"`
	// WallOpsMs are the untraced operations' wall-clock latencies (an
	// experiment, or a request from its due time to its last result
	// line), WallEventsPerS the events completed per wall second, and
	// TracedP50Ms the traced operations' median latency.
	WallOpsMs      []float64 `json:"wall_ops_ms"`
	WallEventsPerS float64   `json:"wall_events_per_s"`
	TracedP50Ms    float64   `json:"traced_p50_ms"`
	// AllocBytes is the harness process's allocation over Ops traced
	// operations (experiments or batches).
	AllocBytes float64 `json:"alloc_bytes"`
	Ops        int     `json:"ops"`
	// PaperDevPct is the fig workloads' deviation from the paper anchors.
	PaperDevPct float64 `json:"paper_dev_pct"`
}

// metricRow is one obs registry entry, in evalserve's /v1/metrics form.
type metricRow struct {
	Kind  string  `json:"kind"`
	Name  string  `json:"name"`
	Count int64   `json:"count,omitempty"`
	Value float64 `json:"value,omitempty"`
	SumNs int64   `json:"sum_ns,omitempty"`
	P50Ns int64   `json:"p50_ns,omitempty"`
	P95Ns int64   `json:"p95_ns,omitempty"`
	MaxNs int64   `json:"max_ns,omitempty"`
}

// resultDiag is one served result's execution diagnostics.
type resultDiag struct {
	SchedMs  float64 `json:"sched_ms"`
	TotalMs  float64 `json:"total_ms"`
	Batched  int     `json:"batched"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	// Adaptive marks an OK run event that solved an adaptation unit
	// (the base of the cache-hit ratio); baseline probes and
	// membership events do not.
	Adaptive bool `json:"adaptive,omitempty"`
	// Task identifies the dispatched unit batch within the run: results
	// of one task share its queue wait and service time.
	Task int `json:"task"`
}

// batchDiag is one HTTP request's timings, all in ms.
type batchDiag struct {
	LatencyMs float64 `json:"latency_ms"` // due time → last result line
	FirstMs   float64 `json:"first_ms"`   // sent → first result line
	LateMs    float64 `json:"late_ms"`    // due time → sent
	// LastTotalMs is the server-reported TotalMs of the last result.
	LastTotalMs float64 `json:"last_total_ms"`
	Events      int     `json:"events"`
}

// snapshotRows converts an in-process registry snapshot.
func snapshotRows(reg *obs.Registry) []metricRow {
	var rows []metricRow
	for _, m := range reg.Snapshot() {
		rows = append(rows, metricRow{
			Kind: m.Kind, Name: m.Name, Count: m.Count, Value: m.Value,
			SumNs: m.Sum.Nanoseconds(), P50Ns: m.P50.Nanoseconds(),
			P95Ns: m.P95.Nanoseconds(), MaxNs: m.Max.Nanoseconds(),
		})
	}
	return rows
}

// deltaRows subtracts a before-snapshot from an after-snapshot: counter
// values and timer counts/sums become the traced window's share; gauges
// and timer quantiles keep their after values.
func deltaRows(before, after []metricRow) []metricRow {
	prev := make(map[string]metricRow, len(before))
	for _, r := range before {
		prev[r.Kind+"/"+r.Name] = r
	}
	out := make([]metricRow, 0, len(after))
	for _, r := range after {
		if p, ok := prev[r.Kind+"/"+r.Name]; ok && r.Kind != "gauge" {
			r.Count -= p.Count
			r.SumNs -= p.SumNs
		}
		out = append(out, r)
	}
	return out
}

func (l *ledger) setSpans(tr *obs.Tracer) error {
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		return err
	}
	l.Spans = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	return nil
}

func (l *ledger) write(path string) error {
	data, err := json.Marshal(l)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("ledger %s: %w", path, err)
	}
	return &l, nil
}

// span is one decoded Chrome trace event.
type span struct {
	Name string  `json:"name"`
	Ts   float64 `json:"ts"`  // µs since tracer start
	Dur  float64 `json:"dur"` // µs
	Tid  int64   `json:"tid"`
}

func (l *ledger) spans() ([]span, error) {
	if len(l.Spans) == 0 {
		return nil, nil
	}
	var out []span
	err := json.Unmarshal(l.Spans, &out)
	return out, err
}

// selfTimes returns each span's self time in µs: its duration minus the
// part of its interval covered by spans nested in it on the same track.
// Spans are recorded when they end, so of two spans with one interval
// the later-recorded one is the parent.
func selfTimes(spans []span) []float64 {
	self := make([]float64, len(spans))
	for i, p := range spans {
		var kids [][2]float64
		for j, c := range spans {
			if j == i || c.Tid != p.Tid || c.Ts < p.Ts || c.Ts+c.Dur > p.Ts+p.Dur {
				continue
			}
			if c.Dur == p.Dur && j > i {
				continue // same interval, recorded later: c is p's parent
			}
			kids = append(kids, [2]float64{c.Ts, c.Ts + c.Dur})
		}
		self[i] = p.Dur - covered(kids)
	}
	return self
}

// covered is the total length of the union of intervals.
func covered(iv [][2]float64) float64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	total := 0.0
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] <= hi {
			hi = max(hi, x[1])
			continue
		}
		total += hi - lo
		lo, hi = x[0], x[1]
	}
	return total + hi - lo
}

// reg indexes registry rows by name.
type reg map[string]metricRow

func indexRows(rows []metricRow) reg {
	r := make(reg, len(rows))
	for _, row := range rows {
		r[row.Name] = row
	}
	return r
}

func (r reg) count(name string) float64 { return float64(r[name].Count) }
func (r reg) sumS(name string) float64  { return float64(r[name].SumNs) / 1e9 }
func (r reg) gauge(name string) float64 { return r[name].Value }

// hitRatio is hits over lookups, named by a counter prefix with .hits and
// .misses children.
func (r reg) hitRatio(prefix string) float64 {
	h, m := r.count(prefix+"hits"), r.count(prefix+"misses")
	return ratio(h, h+m)
}

// perLayer derives the per-layer metrics from a ledger. Fig workloads
// report registry figures per traced experiment; serve workloads report
// them over the traced window. A layer that did no work reads 0.
func perLayer(l *ledger) map[string]metric {
	out := make(map[string]metric)
	set := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	r := indexRows(l.Registry)
	per := float64(max(l.Reps, 1))
	spans, _ := l.spans()
	spanMedian := func(name string) float64 {
		var ds []float64
		for _, s := range spans {
			if s.Name == name {
				ds = append(ds, s.Dur/1e6)
			}
		}
		return median(ds)
	}

	// core: runner and chip lifecycle.
	runSummary := spanMedian(spanRunSummary)
	set("core.run_summary_s", runSummary, "s")
	set("core.chip_prep_busy_s", r.sumS("core.chip_prep")/per, "s")
	set("core.pool.occupancy_pct", r.gauge("core.pool.occupancy_pct"), "%")
	set("core.profile.build_busy_s", r.sumS("core.profile.build")/per, "s")
	set("core.memo.simulate_hit_ratio", r.hitRatio("core.memo.simulate_"), "ratio")
	set("core.memo.evaluate_hit_ratio", r.hitRatio("core.memo.evaluate_"), "ratio")

	// fuzzy: controller training (example generation included).
	set("fuzzy.train_busy_s", r.sumS("core.fuzzy_train")/per, "s")
	set("fuzzy.train.examples", r.count("fuzzy.train.examples")/per, "count")

	// adapt: phase adaptation and the controller.
	set("adapt.phase_busy_s", r.sumS("core.phase.adapt")/per, "s")
	set("adapt.propose_busy_s", r.sumS("adapt.propose")/per, "s")
	set("adapt.propose.calls", r.count("adapt.propose")/per, "count")
	set("adapt.retune.cycles_per_invocation",
		ratio(r.count("adapt.retune.cycles"), r.count("adapt.retune.invocations")), "ratio")
	set("adapt.freq.memo_hits", r.count("adapt.freq.memo_hits")/per, "count")
	set("adapt.power.memo_hits", r.count("adapt.power.memo_hits")/per, "count")
	set("adapt.freq.pruned_combos", r.count("adapt.freq.pruned_combos")/per, "count")

	// thermal.
	set("thermal.batch.solves", r.count("thermal.batch.solves")/per, "count")
	set("thermal.nonconverged", r.count("thermal.nonconverged")/per, "count")

	// artifact store.
	set("artifact.open_s", spanMedian(spanOpen), "s")
	set("artifact.close_s", spanMedian(spanClose), "s")
	set("artifact.encode_busy_s", r.sumS("artifact.cache.encode_ns")/per, "s")
	set("artifact.decode_busy_s", r.sumS("artifact.cache.decode_ns")/per, "s")
	set("artifact.hit_ratio", r.hitRatio("artifact.cache."), "ratio")
	set("artifact.bytes_written", r.count("artifact.cache.bytes")/per, "B")

	// fleet: queueing, service, coalescing, and the cache-hit path.
	var sched, service []float64
	seen := make(map[int]bool)
	serviceSum, groups, events, adaptive, hits := 0.0, 0.0, 0.0, 0.0, 0.0
	for _, d := range l.Results {
		if d.Batched == 0 {
			continue // a membership event or an error: never dispatched
		}
		events++
		groups += 1 / float64(d.Batched)
		if d.Adaptive {
			adaptive++
			if d.CacheHit {
				hits++
			}
		}
		if !seen[d.Task] {
			seen[d.Task] = true
			sched = append(sched, d.SchedMs)
			service = append(service, d.TotalMs-d.SchedMs)
			serviceSum += (d.TotalMs - d.SchedMs) / 1e3
		}
	}
	set("fleet.queue_wait_p50_ms", median(sched), "ms")
	set("fleet.queue_wait_p99_ms", tail(sched, 0.99).Value, "ms")
	set("fleet.service_p50_ms", median(service), "ms")
	set("fleet.service_p99_ms", tail(service, 0.99).Value, "ms")
	set("fleet.coalesce_ratio", ratio(events, groups), "ratio")
	set("fleet.cache_hit_ratio", ratio(hits, adaptive), "ratio")
	set("fleet.pool.occupancy_pct", r.gauge("fleet.pool.occupancy_pct"), "%")
	set("fleet.ingest.lock_wait_ms", r.count("fleet.ingest.lock_wait_ns")/1e6, "ms")

	// wire and evalserve.
	var first, overhead, late []float64
	for _, b := range l.Batches {
		first = append(first, b.FirstMs)
		overhead = append(overhead, b.LatencyMs-b.LateMs-b.LastTotalMs)
		late = append(late, b.LateMs)
	}
	encodeNs := 0.0
	for _, s := range spans {
		if s.Name == spanAppendJSON {
			encodeNs += s.Dur * 1e3
		}
	}
	set("wire.encode_ns_per_result", ratio(encodeNs, float64(l.Encoded)), "ns")
	set("evalserve.flushes_per_request", ratio(r.count("fleet.emit.flushes"), float64(len(l.Batches))), "ratio")
	set("evalserve.first_result_p50_ms", median(first), "ms")
	set("evalserve.http_overhead_p50_ms", median(overhead), "ms")

	// The harness: checks that the run itself is valid.
	set("bench.late_p99_ms", tail(late, 0.99).Value, "ms")
	set("bench.alloc_mb_per_run", ratio(l.AllocBytes/1e6, float64(l.Ops)), "MB")
	untraced := median(l.WallOpsMs)
	set("bench.trace_overhead_pct", 100*ratio(l.TracedP50Ms-untraced, untraced), "%")
	busy, capacity, attributed := 0.0, 0.0, 0.0
	if l.Reps > 0 {
		// Experiment pool: every task is one chip's prep or one
		// (chip, env) unit; a unit's named layers are its fuzzy
		// training and its app runs.
		prep, unit := r.sumS("core.chip_prep"), r.sumS("core.unit")
		busy = (prep + unit) / per
		attributed = (prep + r.sumS("core.fuzzy_train") + r.sumS("core.app_run")) / per
		capacity = float64(l.Env.Workers) * runSummary
	} else {
		// Fleet pool: service time of the dispatched tasks against the
		// server's layer timers.
		busy = serviceSum
		attributed = r.sumS("core.chip_prep") + r.sumS("core.phase.adapt") +
			r.sumS("core.profile.build") + r.sumS("artifact.cache.decode_ns")
		capacity = float64(l.Env.Workers) * l.WindowS
	}
	set("bench.busy_s", busy, "s")
	set("bench.capacity_s", capacity, "s")
	set("bench.unattributed_pct", 100*ratio(max(busy-attributed, 0), busy), "%")
	set("fidelity.paper_dev_pct", l.PaperDevPct, "%")

	// Wall-clock figures of the untraced operations: what a user waits
	// for, but stretched by the host's steal time (see cpu.go).
	set("wall.op_p50_ms", untraced, "ms")
	set("wall.op_tail_ms", tail(l.WallOpsMs, 0.99).Value, "ms")
	set("wall.events_per_s", l.WallEventsPerS, "1/s")
	return out
}

// Span names: one per public call the harness makes into the system.
const (
	spanRep          = "fig.experiment"
	spanNewSimulator = "core.NewSimulator"
	spanOpen         = "artifact.Open"
	spanRunSummary   = "core.RunSummary"
	spanClose        = "artifact.Store.Close"
	spanBatch        = "evalserve.POST /v1/batch"
	spanAppendJSON   = "fleet.Result.AppendJSON"
)

// printLedgerSummary prints each span name's count, total, and self time
// — the first thing to read in a trace.
func printLedgerSummary(path string, led *ledger) {
	spans, err := led.spans()
	if err != nil {
		return
	}
	self := selfTimes(spans)
	type agg struct {
		n          int
		total, own float64
	}
	byName := make(map[string]*agg)
	var names []string
	for i, s := range spans {
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.Dur
		a.own += self[i]
	}
	sort.Strings(names)
	fmt.Printf("# ledger %s\n", path)
	for _, n := range names {
		a := byName[n]
		fmt.Printf("# span %-28s n=%-6d total=%-12s self=%s\n", n, a.n,
			time.Duration(a.total*1e3).Round(time.Microsecond),
			time.Duration(a.own*1e3).Round(time.Microsecond))
	}
}
