// Command evalserve exposes the fleet-scale discrete-event simulation
// service over HTTP: chips join and leave, phase changes and retuning
// requests stream in as event batches, and (chip, env, app, phase)
// adaptation units execute over a worker pool backed by the artifact
// cache, each chip's units on the one worker that owns it.
//
// Usage:
//
//	evalserve -addr :8080 -workers 8
//	evalserve -rate bulk=0.5:10,interactive=5:20 -cache-dir /tmp/evalcache
//
// Endpoints:
//
//	POST /v1/batch   body {"events":[...]}; streams one NDJSON result
//	                 line per event, in submission order
//	GET  /v1/stats   service telemetry snapshot (throughput, per-class
//	                 latency histograms, Jain fairness index)
//	GET  /v1/metrics obs-registry dump (counters, gauges, timers), with
//	                 the fleet.pool.* gauges refreshed first
//	GET  /healthz    liveness probe
//
// Flags:
//
//	-addr a           listen address (default :8080)
//	-workers n        worker goroutines (0 = GOMAXPROCS)
//	-rate spec        per-class admission rates, comma-separated
//	                  class=perTick:burst entries; unlisted classes are
//	                  unthrottled
//	-pprof a          serve net/http/pprof on this address ("" = off)
//	-examples n       fuzzy training examples per controller
//	-tracelen n       instructions per phase profile
//	-cache-dir dir    persistent artifact cache (falls back to
//	                  $EVAL_CACHE_DIR); -no-cache forces it off
//
// A batch body in the form every in-repo client sends (json.Marshal of
// {"events":[...]}) takes fleet.DecodeBatch's one-pass path; everything
// else goes through encoding/json with unknown fields disallowed, so
// acceptance, events and error text are encoding/json's either way.
//
// Compatible run events coalesce into unit batches of at most
// fleet.DefaultMaxBatch events. Results stream through a reused buffer
// flushed at 64 KiB or 25 ms, whichever comes first, rather than per
// line: one write syscall covers many results, and the short timer
// bounds how stale a quiet stream can go. A disconnected client
// (r.Context() done) stops the stream; remaining results are dropped and
// counted in fleet.emit.dropped.
//
// On SIGINT/SIGTERM the server stops accepting connections, drains
// in-flight batches, releases remaining chips (flushing their PE tables),
// and closes the artifact store before exiting.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "worker goroutines (0 = GOMAXPROCS)")
		rates     = flag.String("rate", "", "per-class admission rates: class=perTick:burst[,class=...]")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
		examples  = flag.Int("examples", 1500, "fuzzy training examples per controller")
		traceLen  = flag.Int("tracelen", pipeline.DefaultTraceLen, "instructions per phase profile")
	)
	openStore := artifact.CacheFlags(flag.CommandLine)
	flag.Parse()

	admission, err := parseRates(*rates)
	if err != nil {
		fatal(err)
	}

	reg := obs.NewRegistry()
	store, err := openStore(artifact.Options{Obs: reg})
	if err != nil {
		fatal(err)
	}

	opts := core.DefaultOptions()
	opts.TraceLen = *traceLen
	sim, err := core.NewSimulator(opts)
	if err != nil {
		fatal(err)
	}
	sim.SetObs(reg)
	sim.SetArtifacts(store)

	fl, err := newFleet(sim, fleet.Config{
		Workers:   *workers,
		Admission: admission,
		Obs:       reg,
	}, *examples)
	if err != nil {
		fatal(err)
	}

	if *pprofAddr != "" {
		// net/http/pprof registers on the default mux; give it its own
		// listener so profiling never shares the serving port.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "evalserve: pprof:", err)
			}
		}()
	}

	srv := &http.Server{Addr: *addr,
		Handler: newMux(fl, reg, flushBytes, flushWait)}

	done := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		fmt.Fprintf(os.Stderr, "evalserve: %s, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := drain(ctx, srv, fl, store); err != nil {
			fmt.Fprintln(os.Stderr, "evalserve: shutdown:", err)
		}
		close(done)
	}()

	fmt.Fprintf(os.Stderr, "evalserve: listening on %s (workers=%d, one owner worker per chip)\n",
		*addr, fl.Stats().Workers)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fatal(err)
	}
	<-done
}

// The result stream flushes once flushBytes are buffered or flushWait
// after the first unflushed result, whichever comes first.
const (
	flushBytes = 64 << 10
	flushWait  = 25 * time.Millisecond
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evalserve:", err)
	os.Exit(1)
}

// newMux routes the service's endpoints to their handlers.
func newMux(fl *fleet.Fleet, reg *obs.Registry, flushBytes int, flushWait time.Duration) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/batch", handleBatch(fl, reg, flushBytes, flushWait))
	mux.HandleFunc("/v1/stats", handleStats(fl))
	mux.HandleFunc("/v1/metrics", handleMetrics(fl, reg))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// drain is the graceful shutdown: stop accepting connections and let
// in-flight batches finish streaming (srv.Shutdown, bounded by ctx),
// release the remaining chips, flushing their PE tables (fl.Close), and
// settle the artifact store (store.Close; a nil store is fine). It
// returns Shutdown's error; the fleet and the store close either way.
func drain(ctx context.Context, srv *http.Server, fl *fleet.Fleet, store *artifact.Store) error {
	err := srv.Shutdown(ctx)
	fl.Close()
	store.Close()
	return err
}

// newFleet starts the service's fleet over sim with cfg, training every
// chip's fuzzy controllers from adapt.DefaultTrainOptions() at examples
// examples per controller.
func newFleet(sim *core.Simulator, cfg fleet.Config, examples int) (*fleet.Fleet, error) {
	cfg.Training = adapt.DefaultTrainOptions()
	cfg.Training.Examples = examples
	return fleet.New(sim, cfg)
}

// parseRates decodes "class=perTick:burst[,class=...]" admission specs,
// each class at most once. fleet.New checks the values.
func parseRates(spec string) (map[string]fleet.Rate, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]fleet.Rate)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		class, val, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("-rate entry %q: want class=perTick:burst", entry)
		}
		pt, bs, ok := strings.Cut(val, ":")
		if !ok {
			return nil, fmt.Errorf("-rate entry %q: want class=perTick:burst", entry)
		}
		perTick, err := strconv.ParseFloat(pt, 64)
		if err != nil {
			return nil, fmt.Errorf("-rate entry %q: %v", entry, err)
		}
		burst, err := strconv.ParseFloat(bs, 64)
		if err != nil {
			return nil, fmt.Errorf("-rate entry %q: %v", entry, err)
		}
		if _, dup := out[class]; dup {
			return nil, fmt.Errorf("-rate entry %q: class %q listed twice", entry, class)
		}
		out[class] = fleet.Rate{PerTick: perTick, Burst: burst}
	}
	return out, nil
}

// bodyBufPool recycles request-body buffers across batch requests, and
// streamBufPool the NDJSON stream buffers.
var (
	bodyBufPool   = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	streamBufPool = sync.Pool{New: func() any { return make([]byte, 0, flushBytes) }}
)

// resultStreamer batches NDJSON result lines through a reused buffer,
// flushing on a size watermark or a latency timer, whichever fires
// first. Once the request context is done or a write fails, it stops
// touching the connection and counts every further result as dropped.
type resultStreamer struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher
	ctx     context.Context
	buf     []byte
	timer   *time.Timer
	failed  bool

	maxBytes int
	maxWait  time.Duration
	flushes  *obs.Counter
	dropped  *obs.Counter
}

func newResultStreamer(w http.ResponseWriter, r *http.Request, reg *obs.Registry, maxBytes int, maxWait time.Duration) *resultStreamer {
	flusher, _ := w.(http.Flusher)
	return &resultStreamer{
		w: w, flusher: flusher, ctx: r.Context(),
		buf:      streamBufPool.Get().([]byte)[:0],
		maxBytes: maxBytes, maxWait: maxWait,
		flushes: reg.Counter("fleet.emit.flushes"),
		dropped: reg.Counter("fleet.emit.dropped"),
	}
}

// emit is the fleet's result callback.
func (st *resultStreamer) emit(res fleet.Result) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.failed || st.ctx.Err() != nil {
		st.failed = true
		st.dropped.Inc()
		return
	}
	st.buf = res.AppendJSON(st.buf)
	st.buf = append(st.buf, '\n')
	if len(st.buf) >= st.maxBytes {
		st.flushLocked()
	} else if st.timer == nil {
		st.timer = time.AfterFunc(st.maxWait, st.timedFlush)
	}
}

func (st *resultStreamer) timedFlush() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.timer = nil
	if !st.failed && st.ctx.Err() == nil {
		st.flushLocked()
	}
}

func (st *resultStreamer) flushLocked() {
	if st.timer != nil {
		st.timer.Stop()
		st.timer = nil
	}
	if len(st.buf) == 0 {
		return
	}
	if _, err := st.w.Write(st.buf); err != nil {
		st.failed = true
		st.buf = st.buf[:0]
		return
	}
	st.buf = st.buf[:0]
	if st.flusher != nil {
		st.flusher.Flush()
	}
	st.flushes.Inc()
}

// close flushes the tail and recycles the buffer. Call after
// SubmitBatch has returned (no emit can be in flight).
func (st *resultStreamer) close() {
	st.mu.Lock()
	if st.timer != nil {
		st.timer.Stop()
		st.timer = nil
	}
	if !st.failed && st.ctx.Err() == nil {
		st.flushLocked()
	}
	buf := st.buf[:0]
	st.buf = nil
	st.mu.Unlock()
	streamBufPool.Put(buf)
}

// handleBatch reads one event batch, decodes it with fleet.DecodeBatch,
// and streams NDJSON results in submission order through a
// watermark-flushed buffer.
func handleBatch(fl *fleet.Fleet, reg *obs.Registry, flushBytes int, flushWait time.Duration) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		body := bodyBufPool.Get().(*bytes.Buffer)
		body.Reset()
		_, err := body.ReadFrom(r.Body)
		var events []fleet.Event
		if err == nil {
			events, err = fleet.DecodeBatch(body.Bytes())
		}
		bodyBufPool.Put(body) // the events share no bytes with it
		if err != nil {
			http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		st := newResultStreamer(w, r, reg, flushBytes, flushWait)
		err = fl.SubmitBatch(events, st.emit)
		st.close()
		if err != nil {
			// Nothing was emitted: the fleet only rejects before streaming.
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
		}
	}
}

// handleStats serves the telemetry snapshot.
func handleStats(fl *fleet.Fleet) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fl.Stats()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

// metricRow is one /v1/metrics entry.
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

// handleMetrics dumps the obs registry: every counter, gauge, and timer
// the simulator, artifact store, and fleet have registered. It publishes
// the fleet's pool gauges first, so occupancy is current without a
// /v1/stats call.
func handleMetrics(fl *fleet.Fleet, reg *obs.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		fl.PublishGauges()
		rows := make([]metricRow, 0, 32)
		for _, m := range reg.Snapshot() {
			rows = append(rows, metricRow{
				Kind: m.Kind, Name: m.Name, Count: m.Count, Value: m.Value,
				SumNs: m.Sum.Nanoseconds(), P50Ns: m.P50.Nanoseconds(),
				P95Ns: m.P95.Nanoseconds(), MaxNs: m.Max.Nanoseconds(),
			})
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rows); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}
