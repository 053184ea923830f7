package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named metrics. All methods are safe for concurrent use
// and safe on a nil receiver (returning nil metric handles whose methods
// no-op), so a disabled registry costs nothing on the hot path.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter of that name.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge of that name.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns (creating if needed) the histogram timer of that name.
func (r *Registry) Timer(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-write-wins float value.
type Gauge struct{ bits atomic.Uint64 }

// Set records v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value set (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// reservoirSize bounds per-histogram memory; beyond it, reservoir
// sampling keeps a uniform subsample for the quantile estimates while
// count/sum/min/max stay exact.
const reservoirSize = 4096

// Histogram accumulates durations and reports count, total, min/max, and
// approximate quantiles.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	samples []time.Duration
	rng     uint64 // xorshift state for reservoir replacement
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
	if len(h.samples) < reservoirSize {
		h.samples = append(h.samples, d)
		return
	}
	// xorshift64; seeded from the first overflow count, deterministic
	// for a deterministic insertion order.
	if h.rng == 0 {
		h.rng = uint64(h.count)*2685821657736338717 + 1
	}
	h.rng ^= h.rng << 13
	h.rng ^= h.rng >> 7
	h.rng ^= h.rng << 17
	if j := h.rng % uint64(h.count); j < reservoirSize {
		h.samples[j] = d
	}
}

// Stopwatch times one interval against a histogram. The zero Stopwatch
// (from a nil histogram) is inert.
type Stopwatch struct {
	h  *Histogram
	t0 time.Time
}

// Start begins timing; Stop on the returned Stopwatch records the
// elapsed time. On a nil histogram no clock is read and nothing is
// recorded.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, t0: time.Now()}
}

// Stop records the elapsed time since Start and returns it.
func (sw Stopwatch) Stop() time.Duration {
	if sw.h == nil {
		return 0
	}
	d := time.Since(sw.t0)
	sw.h.Observe(d)
	return d
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Sum returns the total observed duration (0 on a nil histogram).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Quantile returns the p-quantile (p in [0,1]) of the retained samples,
// or 0 if the histogram is nil or empty.
func (h *Histogram) Quantile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	sorted := append([]time.Duration(nil), h.samples...)
	h.mu.Unlock()
	if len(sorted) == 0 {
		return 0
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	return sorted[int(p*float64(len(sorted)-1)+0.5)]
}

// Max returns the largest observation (exact, 0 if nil or empty).
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Metric is one row of a registry snapshot.
type Metric struct {
	Kind string // "counter", "gauge", "timer"
	Name string
	// Count is the counter value or the timer observation count.
	Count int64
	// Value is the gauge value.
	Value float64
	// Sum, P50, P95, Max describe a timer.
	Sum, P50, P95, Max time.Duration
}

// Snapshot returns every metric, sorted by kind then name. Empty timers
// are included (count 0) so wiring mistakes are visible.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	type namedHist struct {
		name string
		h    *Histogram
	}
	var ms []Metric
	var hs []namedHist
	for name, c := range r.counters {
		ms = append(ms, Metric{Kind: "counter", Name: name, Count: c.Value()})
	}
	for name, g := range r.gauges {
		ms = append(ms, Metric{Kind: "gauge", Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hs = append(hs, namedHist{name, h})
	}
	r.mu.Unlock()
	// Histogram stats are read outside the registry lock (each histogram
	// has its own mutex; Quantile/Sum/etc. lock it).
	for _, nh := range hs {
		ms = append(ms, Metric{
			Kind:  "timer",
			Name:  nh.name,
			Count: nh.h.Count(),
			Sum:   nh.h.Sum(),
			P50:   nh.h.Quantile(0.50),
			P95:   nh.h.Quantile(0.95),
			Max:   nh.h.Max(),
		})
	}
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Kind != ms[j].Kind {
			return ms[i].Kind < ms[j].Kind
		}
		return ms[i].Name < ms[j].Name
	})
	return ms
}

// WriteSummary renders the metrics footer: one aligned row per metric.
func (r *Registry) WriteSummary(w io.Writer) error {
	ms := r.Snapshot()
	if len(ms) == 0 {
		_, err := fmt.Fprintln(w, "-- metrics: none recorded --")
		return err
	}
	nameW := 0
	for _, m := range ms {
		if len(m.Name) > nameW {
			nameW = len(m.Name)
		}
	}
	if _, err := fmt.Fprintln(w, "-- metrics ----------------------------------------------------------"); err != nil {
		return err
	}
	for _, m := range ms {
		var err error
		switch m.Kind {
		case "counter":
			_, err = fmt.Fprintf(w, "counter  %-*s  %d\n", nameW, m.Name, m.Count)
		case "gauge":
			_, err = fmt.Fprintf(w, "gauge    %-*s  %.3g\n", nameW, m.Name, m.Value)
		case "timer":
			_, err = fmt.Fprintf(w, "timer    %-*s  n=%-7d total=%-10s p50=%-10s p95=%-10s max=%s\n",
				nameW, m.Name, m.Count, fmtDur(m.Sum), fmtDur(m.P50), fmtDur(m.P95), fmtDur(m.Max))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// fmtDur rounds a duration to a readable precision.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	case d >= time.Microsecond:
		return d.Round(time.Nanosecond).String()
	default:
		return d.String()
	}
}
