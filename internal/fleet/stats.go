package fleet

import (
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// stats aggregates service-level telemetry: global throughput counters,
// scheduling/total latency histograms, and per-class breakdowns for the
// fairness index. Counters are atomics, since workers bump them outside
// the ingest lock; the class table is a plain map under that lock. The
// histograms are zero-value obs.Histograms used directly (not through a
// registry) so /v1/stats can quote quantiles without a registry attached.
type stats struct {
	start time.Time

	events        atomic.Int64 // every submitted event
	units         atomic.Int64 // dispatched unit batches
	batchedEvents atomic.Int64 // run events that shared an already-open unit
	cacheHits     atomic.Int64
	cacheMisses   atomic.Int64

	sched obs.Histogram // run-event dispatch → worker pickup
	total obs.Histogram // run-event dispatch → result emitted

	// classes is guarded by the fleet's ingest lock: SubmitBatch adds a
	// class the first time its name appears, and Stats copies the table.
	classes map[string]*classStats
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

	sched, total obs.Histogram // the class's share of the global pair
}

func newStats() *stats {
	return &stats{start: time.Now(), classes: make(map[string]*classStats)}
}

// class returns (creating if needed) the class's stats slot. The caller
// holds the ingest lock.
func (s *stats) class(name string) *classStats {
	c := s.classes[name]
	if c == nil {
		c = new(classStats)
		s.classes[name] = c
	}
	return c
}

// observeRun records one completed run event's latencies.
func (s *stats) observeRun(c *classStats, sched, total time.Duration) {
	s.sched.Observe(sched)
	s.total.Observe(total)
	c.sched.Observe(sched)
	c.total.Observe(total)
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

// snapshot renders the current telemetry over classes, a copy of the
// class table taken under the ingest lock.
func (s *stats) snapshot(classes map[string]*classStats) Snapshot {
	snap := Snapshot{
		UptimeS:       time.Since(s.start).Seconds(),
		Events:        s.events.Load(),
		Units:         s.units.Load(),
		BatchedEvents: s.batchedEvents.Load(),
		CacheHits:     s.cacheHits.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		SchedP50Ms:    ms(s.sched.Quantile(0.50)),
		SchedP99Ms:    ms(s.sched.Quantile(0.99)),
		TotalP50Ms:    ms(s.total.Quantile(0.50)),
		TotalP99Ms:    ms(s.total.Quantile(0.99)),
		Classes:       make(map[string]ClassSnapshot),
	}
	if snap.UptimeS > 0 {
		snap.EventsPerSec = float64(snap.Events) / snap.UptimeS
	}
	served := make([]float64, 0, len(classes))
	for name, c := range classes {
		served = append(served, float64(c.served.Load()))
		snap.Classes[name] = ClassSnapshot{
			Events:     c.events.Load(),
			OK:         c.ok.Load(),
			Rejected:   c.rejected.Load(),
			Errors:     c.errors.Load(),
			SchedP50Ms: ms(c.sched.Quantile(0.50)),
			SchedP99Ms: ms(c.sched.Quantile(0.99)),
			TotalP50Ms: ms(c.total.Quantile(0.50)),
			TotalP99Ms: ms(c.total.Quantile(0.99)),
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
