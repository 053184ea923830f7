package fleet

import (
	"fmt"
	"maps"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// DefaultMaxBatch bounds how many compatible run events coalesce into
// one dispatched unit batch.
const DefaultMaxBatch = 64

// Config configures a Fleet.
type Config struct {
	// Workers is the worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// Admission maps class names to token-bucket rates; classes without
	// an entry are unthrottled. New refuses a rate field that is NaN,
	// infinite or negative.
	Admission map[string]Rate
	// Training configures per-chip fuzzy-controller training; the zero
	// value means adapt.DefaultTrainOptions(). New validates it and
	// refuses to start on a bad set. Workers should stay 1 (the default
	// here, unlike the batch experiments): the fleet already saturates
	// cores with unit parallelism, and nested training pools would
	// oversubscribe.
	Training adapt.TrainOptions
	// Obs, when non-nil, receives the fleet.pool.* gauges and the
	// fleet.ingest.lock_wait_ns counter, the time batches waited for the
	// ingest lock.
	Obs *obs.Registry

	// The service runs with the defaults of the two knobs below; only
	// this package's tests set them.
	//
	// maxBatch bounds events per dispatched unit batch (0 =
	// DefaultMaxBatch).
	maxBatch int
	// apps is the service's application universe, resolved by event App
	// name (nil = the full proxy suite). Static-mode points are derived
	// per class over this universe, matching the batch experiments.
	apps []workload.App
}

// Fleet is the shared-clock discrete-event simulation service: chips
// join and leave, run events arrive as a request stream, and (chip, env,
// app, phase) units execute on each chip's owner worker, backed by the
// Simulator's artifact cache. See doc.go for the ordering and
// determinism contract.
//
// One ingest lock serializes SubmitBatch's ingest scans: a batch's
// sequence block, clock folds, joins, leaves, admissions and class
// lookups all happen under it, in event order. Queue sends happen
// outside it.
type Fleet struct {
	sim  *core.Simulator
	cfg  Config
	apps map[string]workload.App

	// mu is the ingest lock. It guards seq, clock, joined, members and
	// the stats class table.
	mu      sync.Mutex
	seq     int64 // last sequence number assigned
	clock   int64 // running max of submitted At values
	joined  int   // chips admitted so far; picks each chip's owner
	members map[int64]*chipEntry
	buckets map[string]*TokenBucket // the map is read-only after New

	// closeMu fences dispatch against Close: SubmitBatch holds the read
	// side from the closed check through its last queue send, so Close
	// can only close the worker queues once no submitter is mid-dispatch.
	closeMu sync.RWMutex
	closed  bool

	queues []chan *unitTask
	wg     sync.WaitGroup // workers
	bg     sync.WaitGroup // leave-triggered release goroutines

	stats    *stats
	mon      *obs.PoolMonitor
	lockWait *obs.Counter // nil when no registry
}

// chipEntry is one admitted chip. Every unit of the chip runs on its
// owner worker, the n-th admitted chip's being worker n mod Workers. The
// expensive handle builds lazily under once on the owner's first unit;
// units register on the WaitGroup so a leave can release the handle
// only once the chip is quiescent.
type chipEntry struct {
	seed   int64
	worker int
	units  sync.WaitGroup

	once   sync.Once
	handle *core.ChipHandle
	err    error

	// cores holds the chip's core per environment, built on first use
	// and touched only by the owner. Living on the entry, a departed
	// chip's cores are freed with it.
	cores [core.NumEnvironments]*adapt.Core

	// replay holds the payload of every unit this admission of the chip
	// has read from the artifact store or computed on a core whose
	// Evaluate memo is complete, touched only by the owner and freed
	// with the entry (see solveGroups).
	replay map[replayKey]RunPayload
}

// replayKey names one adaptation unit of a chip: environment, mode, app
// and phase (-1 = whole app), the first two parsed.
type replayKey struct {
	env   core.Environment
	mode  core.Mode
	app   string
	phase int
}

func (e *chipEntry) ensure(sim *core.Simulator) (*core.ChipHandle, error) {
	e.once.Do(func() { e.handle, e.err = sim.AcquireChip(e.seed) })
	return e.handle, e.err
}

// eventRef ties one ingested event to its slot in the submission batch.
type eventRef struct {
	b   *batch
	cls *classStats
	pos int
	ev  Event
	seq int64
}

// unitKey coalesces compatible run events: same chip, environment, and
// mode. A packed comparable struct, so the open-task map never
// allocates key strings on the hot path.
type unitKey struct {
	chip int64
	env  string
	mode string
}

// unitTask is one dispatched batch of compatible run events: same chip,
// environment, and mode. Distinct (app, phase) groups inside it each
// solve once; duplicate events replay the group's result.
type unitTask struct {
	entry *chipEntry
	env   string
	mode  string
	refs  []eventRef
	enq   time.Time
}

var taskPool = sync.Pool{New: func() any { return new(unitTask) }}

// release returns a finished task to the pool.
func (t *unitTask) release() {
	clear(t.refs) // drop batch/entry references before pooling
	t.refs = t.refs[:0]
	t.entry = nil
	t.env, t.mode = "", ""
	taskPool.Put(t)
}

// batch tracks one SubmitBatch call's results and re-serializes
// emission: results become visible to emit strictly in submission
// order, whatever order workers finish in.
type batch struct {
	mu      sync.Mutex
	emit    func(Result)
	results []Result
	ready   []bool
	next    int
	done    chan struct{}
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

func getBatch(n int, emit func(Result)) *batch {
	b := batchPool.Get().(*batch)
	b.emit = emit
	b.next = 0
	b.done = make(chan struct{})
	if cap(b.results) < n {
		b.results = make([]Result, n)
		b.ready = make([]bool, n)
	} else {
		b.results = b.results[:n]
		b.ready = b.ready[:n]
		clear(b.results)
		clear(b.ready)
	}
	return b
}

// putBatch recycles a fully emitted batch. Safe only after done is
// closed: every finish call has completed and released b.mu.
func putBatch(b *batch) {
	b.emit = nil
	b.done = nil
	batchPool.Put(b)
}

// finish records slot pos's result and emits any newly contiguous
// prefix.
func (b *batch) finish(pos int, r Result) {
	b.mu.Lock()
	b.results[pos] = r
	b.ready[pos] = true
	for b.next < len(b.ready) && b.ready[b.next] {
		if b.emit != nil {
			b.emit(b.results[b.next])
		}
		b.next++
	}
	if b.next == len(b.ready) {
		close(b.done)
	}
	b.mu.Unlock()
}

// immediate is one result decided at ingest (join/leave, rejections,
// validation errors).
type immediate struct {
	pos int
	res Result
}

// submitScratch is SubmitBatch's reusable per-call state.
type submitScratch struct {
	immediates []immediate
	tasks      []*unitTask
	open       map[unitKey]*unitTask
}

var scratchPool = sync.Pool{New: func() any {
	return &submitScratch{open: make(map[unitKey]*unitTask)}
}}

func (sc *submitScratch) release() {
	sc.immediates = sc.immediates[:0]
	clear(sc.tasks)
	sc.tasks = sc.tasks[:0]
	clear(sc.open)
	scratchPool.Put(sc)
}

// New starts a fleet over the simulator's models and artifact store.
func New(sim *core.Simulator, cfg Config) (*Fleet, error) {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.maxBatch < 1 {
		cfg.maxBatch = DefaultMaxBatch
	}
	if cfg.apps == nil {
		cfg.apps = workload.Suite()
	}
	if cfg.Training == (adapt.TrainOptions{}) {
		cfg.Training = adapt.DefaultTrainOptions()
	}
	if cfg.Training.Workers == 0 {
		cfg.Training.Workers = 1
	}
	if err := cfg.Training.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: training options: %w", err)
	}
	for class, r := range cfg.Admission {
		// A NaN rate would reject its class forever once its burst is
		// spent, an infinite one unthrottle it, a negative one drain it.
		if !(r.PerTick >= 0 && r.Burst >= 0) || math.IsInf(r.PerTick, 1) || math.IsInf(r.Burst, 1) {
			return nil, fmt.Errorf("fleet: admission class %q: rate %v:%v, want finite and non-negative", class, r.PerTick, r.Burst)
		}
	}
	f := &Fleet{
		sim:      sim,
		cfg:      cfg,
		apps:     make(map[string]workload.App, len(cfg.apps)),
		members:  make(map[int64]*chipEntry),
		buckets:  make(map[string]*TokenBucket),
		queues:   make([]chan *unitTask, cfg.Workers),
		stats:    newStats(),
		mon:      obs.NewPoolMonitor(cfg.Obs, "fleet.pool", cfg.Workers),
		lockWait: cfg.Obs.Counter("fleet.ingest.lock_wait_ns"),
	}
	for _, app := range cfg.apps {
		if _, dup := f.apps[app.Name]; dup {
			return nil, fmt.Errorf("fleet: duplicate app %q in universe", app.Name)
		}
		f.apps[app.Name] = app
	}
	for class, rate := range cfg.Admission {
		f.buckets[class] = NewTokenBucket(rate)
	}
	for w := 0; w < cfg.Workers; w++ {
		f.queues[w] = make(chan *unitTask, 1024)
		f.wg.Add(1)
		go f.worker(w)
	}
	return f, nil
}

// Chips returns the current admitted-chip count.
func (f *Fleet) Chips() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.members)
}

// Stats renders the service telemetry snapshot. It copies the class
// table under the ingest lock and computes quantiles outside it.
func (f *Fleet) Stats() Snapshot {
	f.mon.Publish()
	f.mu.Lock()
	chips := len(f.members)
	classes := maps.Clone(f.stats.classes)
	f.mu.Unlock()
	snap := f.stats.snapshot(classes)
	snap.Workers = f.cfg.Workers
	snap.Chips = chips
	return snap
}

// PublishGauges refreshes the fleet.pool.* gauges in Config.Obs, so a
// registry snapshot taken next reads current pool occupancy. Stats
// publishes them too.
func (f *Fleet) PublishGauges() { f.mon.Publish() }

// SubmitBatch ingests one ordered event batch and blocks until every
// event's result has been passed to emit, in submission order. emit runs
// on internal goroutines, one call at a time; it must not call back into
// the Fleet. Returns an error (before emitting anything) only if the
// fleet is closed.
func (f *Fleet) SubmitBatch(events []Event, emit func(Result)) error {
	if len(events) == 0 {
		return nil
	}
	f.closeMu.RLock()
	if f.closed {
		f.closeMu.RUnlock()
		return fmt.Errorf("fleet: closed")
	}
	b := getBatch(len(events), emit)
	sc := scratchPool.Get().(*submitScratch)

	// The whole scan runs under the ingest lock, so the batch takes a
	// contiguous sequence block and its joins, leaves and admissions
	// land in event order, between whole batches of other submitters.
	t0 := time.Now()
	f.mu.Lock()
	f.lockWait.Add(time.Since(t0).Nanoseconds())
	for pos, ev := range events {
		f.seq++
		f.clock = max(f.clock, ev.At)
		res := Result{
			Seq: f.seq, At: ev.At, Kind: ev.Kind, Class: ev.Class,
			Chip: ev.Chip, Env: ev.Env, Mode: ev.Mode, App: ev.App,
			Phase: ev.Phase, Status: StatusOK,
		}
		f.stats.events.Add(1)
		cls := f.stats.class(ev.Class)
		cls.events.Add(1)
		switch ev.Kind {
		case KindJoin:
			if _, dup := f.members[ev.Chip]; dup {
				res.Status = StatusError
				res.Err = fmt.Sprintf("chip %d already joined", ev.Chip)
				cls.errors.Add(1)
			} else {
				f.members[ev.Chip] = &chipEntry{seed: ev.Chip, worker: f.joined % f.cfg.Workers}
				f.joined++
				cls.ok.Add(1)
			}
			sc.immediates = append(sc.immediates, immediate{pos, res})
		case KindLeave:
			entry, ok := f.members[ev.Chip]
			delete(f.members, ev.Chip)
			if !ok {
				res.Status = StatusError
				res.Err = fmt.Sprintf("chip %d not joined", ev.Chip)
				cls.errors.Add(1)
			} else {
				// Release once the chip's in-flight units drain; the handle
				// flushes its accumulated PE tables to the artifact store.
				f.bg.Add(1)
				go func() {
					defer f.bg.Done()
					entry.units.Wait()
					if entry.handle != nil {
						f.sim.ReleaseChip(entry.handle)
					}
				}()
				cls.ok.Add(1)
			}
			sc.immediates = append(sc.immediates, immediate{pos, res})
		case KindRun:
			entry := f.members[ev.Chip]
			if entry == nil {
				res.Status = StatusError
				res.Err = fmt.Sprintf("chip %d not joined", ev.Chip)
				cls.errors.Add(1)
				sc.immediates = append(sc.immediates, immediate{pos, res})
				continue
			}
			if msg := f.validateRun(ev); msg != "" {
				res.Status = StatusError
				res.Err = msg
				cls.errors.Add(1)
				sc.immediates = append(sc.immediates, immediate{pos, res})
				continue
			}
			if bucket, throttled := f.buckets[ev.Class]; throttled && !bucket.Allow(f.clock) {
				res.Status = StatusRejected
				res.Err = "admission: class rate exceeded"
				cls.rejected.Add(1)
				sc.immediates = append(sc.immediates, immediate{pos, res})
				continue
			}
			// Registered under the ingest lock, the unit precedes any
			// later leave's Wait on the chip.
			entry.units.Add(1)
			key := unitKey{chip: ev.Chip, env: ev.Env, mode: ev.Mode}
			t := sc.open[key]
			if t != nil && len(t.refs) >= f.cfg.maxBatch {
				t = nil
			}
			if t == nil {
				t = taskPool.Get().(*unitTask)
				t.entry, t.env, t.mode = entry, ev.Env, ev.Mode
				sc.open[key] = t
				sc.tasks = append(sc.tasks, t)
			} else {
				f.stats.batchedEvents.Add(1)
			}
			t.refs = append(t.refs, eventRef{b: b, cls: cls, pos: pos, ev: ev, seq: f.seq})
		default:
			res.Status = StatusError
			res.Err = fmt.Sprintf("unknown event kind %q", ev.Kind)
			cls.errors.Add(1)
			sc.immediates = append(sc.immediates, immediate{pos, res})
		}
	}
	f.mu.Unlock()
	// Each task goes to its chip's owner in ingest order, so a chip's
	// tasks run in ingest order whatever the worker count.
	for _, t := range sc.tasks {
		t.enq = time.Now()
		f.stats.units.Add(1)
		f.queues[t.entry.worker] <- t
	}
	if len(sc.tasks) > 0 {
		depth := 0
		for _, q := range f.queues {
			depth += len(q)
		}
		f.mon.Depth(depth)
	}
	f.closeMu.RUnlock()

	for _, im := range sc.immediates {
		b.finish(im.pos, im.res)
	}
	<-b.done
	sc.release()
	putBatch(b)
	return nil
}

// validateRun checks a run event's simulation coordinates, returning an
// error message ("" = valid).
func (f *Fleet) validateRun(ev Event) string {
	// Baseline probes report the chip's worst-case-safe frequency; they
	// simulate no app, so the coordinates below don't apply.
	if ev.Mode == ModeBaseline {
		return ""
	}
	app, ok := f.apps[ev.App]
	if !ok {
		return fmt.Sprintf("unknown app %q", ev.App)
	}
	if ev.Phase != nil && (*ev.Phase < 0 || *ev.Phase >= len(app.Phases)) {
		return fmt.Sprintf("app %q has no phase %d", ev.App, *ev.Phase)
	}
	switch ev.Mode {
	case ModeStatic, ModeFuzzy, ModeExh:
	default:
		return fmt.Sprintf("unknown mode %q", ev.Mode)
	}
	env, err := core.ParseEnvironment(ev.Env)
	if err != nil {
		return fmt.Sprintf("unknown environment %q", ev.Env)
	}
	if !env.Adaptive() {
		return fmt.Sprintf("environment %q is not adaptive", ev.Env)
	}
	return ""
}

// groupKey identifies one solve inside a unit task.
type groupKey struct {
	app   string
	phase int // -1 = whole app
}

func keyOf(ev Event) groupKey {
	k := groupKey{app: ev.App, phase: -1}
	if ev.Phase != nil {
		k.phase = *ev.Phase
	}
	return k
}

// Close drains the fleet: no new batches are accepted, queued units
// finish, remaining chips release (flushing PE tables), and the workers
// exit. Callers flush/close the artifact store themselves afterwards.
func (f *Fleet) Close() {
	f.closeMu.Lock()
	if f.closed {
		f.closeMu.Unlock()
		return
	}
	f.closed = true
	f.mu.Lock()
	remaining := f.members
	f.members = make(map[int64]*chipEntry)
	f.mu.Unlock()
	f.closeMu.Unlock()

	for _, q := range f.queues {
		close(q)
	}
	f.wg.Wait()
	for _, e := range remaining {
		e.units.Wait()
		if e.handle != nil {
			f.sim.ReleaseChip(e.handle)
		}
	}
	f.bg.Wait()
	f.mon.Publish()
}
