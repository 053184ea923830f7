package fleet

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// stats aggregates service-level telemetry: global throughput counters,
// scheduling/total latency histograms, and per-class breakdowns for the
// fairness index. Nothing here takes a lock on the steady-state path:
// counters are atomics, the class table is copy-on-write (reads are a
// single atomic pointer load; the write lock is only taken the first
// time a class name appears), and the latency histograms are sharded
// per worker and merged at snapshot time. Histograms are zero-value
// obs.Histograms used directly (not through a registry) so /v1/stats
// can quote quantiles without a registry attached.
type stats struct {
	start time.Time

	events        atomic.Int64 // every submitted event
	units         atomic.Int64 // dispatched unit batches
	batchedEvents atomic.Int64 // run events that shared an already-open unit
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64

	lat []latShard // global latency shards, indexed by worker

	classMu sync.Mutex // serializes class-table copy-on-write updates
	classes atomic.Pointer[map[string]*classStats]
}

// latShard is one worker's slice of a latency pair. Each worker observes
// into its own shard, so the histogram mutexes are never contended; the
// padding keeps adjacent shards off one cache line.
type latShard struct {
	sched obs.Histogram // run-event dispatch → worker pickup
	total obs.Histogram // run-event dispatch → result emitted
	_     [64]byte
}

// classStats is one admission class's slice of the telemetry.
type classStats struct {
	events   atomic.Int64
	ok       atomic.Int64
	rejected atomic.Int64
	errors   atomic.Int64
	// served counts StatusOK *run* events only — the per-client service
	// rate the fairness index is defined over (joins and leaves are
	// membership bookkeeping, not service).
	served atomic.Int64

	lat []latShard // per-worker latency shards, like the global pair
}

func newStats(workers int) *stats {
	s := &stats{start: time.Now(), lat: make([]latShard, workers)}
	empty := make(map[string]*classStats)
	s.classes.Store(&empty)
	return s
}

// class returns (creating if needed) the class's stats slot. The hit
// path is one atomic load and a map read; creation copies the table.
func (s *stats) class(name string) *classStats {
	if c, ok := (*s.classes.Load())[name]; ok {
		return c
	}
	s.classMu.Lock()
	defer s.classMu.Unlock()
	cur := *s.classes.Load()
	if c, ok := cur[name]; ok { // lost the creation race
		return c
	}
	c := &classStats{lat: make([]latShard, len(s.lat))}
	next := make(map[string]*classStats, len(cur)+1)
	for k, v := range cur {
		next[k] = v
	}
	next[name] = c
	s.classes.Store(&next)
	return c
}

// observeRun records one completed run event's latencies into worker w's
// shards.
func (s *stats) observeRun(c *classStats, w int, sched, total time.Duration) {
	s.lat[w].sched.Observe(sched)
	s.lat[w].total.Observe(total)
	c.lat[w].sched.Observe(sched)
	c.lat[w].total.Observe(total)
}

// mergeLat folds a shard set into one scratch pair for quantiles.
func mergeLat(shards []latShard) (sched, total *obs.Histogram) {
	sched, total = new(obs.Histogram), new(obs.Histogram)
	for i := range shards {
		sched.Merge(&shards[i].sched)
		total.Merge(&shards[i].total)
	}
	return sched, total
}

// ClassSnapshot is one class's row of a stats snapshot.
type ClassSnapshot struct {
	Events   int64 `json:"events"`
	OK       int64 `json:"ok"`
	Rejected int64 `json:"rejected"`
	Errors   int64 `json:"errors"`

	SchedP50Ms float64 `json:"sched_p50_ms"`
	SchedP99Ms float64 `json:"sched_p99_ms"`
	TotalP50Ms float64 `json:"total_p50_ms"`
	TotalP99Ms float64 `json:"total_p99_ms"`
}

// Snapshot is the /v1/stats document.
type Snapshot struct {
	UptimeS float64 `json:"uptime_s"`
	Workers int     `json:"workers"`
	Chips   int     `json:"chips"`

	Events        int64 `json:"events"`
	Units         int64 `json:"units"`
	BatchedEvents int64 `json:"batched_events"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`

	// EventsPerSec is events over uptime.
	EventsPerSec float64 `json:"events_per_sec"`
	// Fairness is the Jain index over per-class served (ok) counts:
	// 1 = perfectly even service, 1/n = one class served exclusively.
	Fairness float64 `json:"fairness"`

	SchedP50Ms float64 `json:"sched_p50_ms"`
	SchedP99Ms float64 `json:"sched_p99_ms"`
	TotalP50Ms float64 `json:"total_p50_ms"`
	TotalP99Ms float64 `json:"total_p99_ms"`

	Classes map[string]ClassSnapshot `json:"classes,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// snapshot renders the current telemetry.
func (s *stats) snapshot() Snapshot {
	sched, total := mergeLat(s.lat)
	snap := Snapshot{
		UptimeS:       time.Since(s.start).Seconds(),
		Events:        s.events.Load(),
		Units:         s.units.Load(),
		BatchedEvents: s.batchedEvents.Load(),
		CacheHits:     s.cacheHits.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		SchedP50Ms:    ms(sched.Quantile(0.50)),
		SchedP99Ms:    ms(sched.Quantile(0.99)),
		TotalP50Ms:    ms(total.Quantile(0.50)),
		TotalP99Ms:    ms(total.Quantile(0.99)),
		Classes:       make(map[string]ClassSnapshot),
	}
	if snap.UptimeS > 0 {
		snap.EventsPerSec = float64(snap.Events) / snap.UptimeS
	}
	classes := *s.classes.Load()
	served := make([]float64, 0, len(classes))
	for name, c := range classes {
		served = append(served, float64(c.served.Load()))
		cs, ct := mergeLat(c.lat)
		snap.Classes[name] = ClassSnapshot{
			Events:     c.events.Load(),
			OK:         c.ok.Load(),
			Rejected:   c.rejected.Load(),
			Errors:     c.errors.Load(),
			SchedP50Ms: ms(cs.Quantile(0.50)),
			SchedP99Ms: ms(cs.Quantile(0.99)),
			TotalP50Ms: ms(ct.Quantile(0.50)),
			TotalP99Ms: ms(ct.Quantile(0.99)),
		}
	}
	snap.Fairness = JainFairness(served)
	return snap
}

// JainFairness computes Jain's fairness index (Σx)² / (n·Σx²) over
// per-class service rates; 0 with no samples or no service.
func JainFairness(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}
