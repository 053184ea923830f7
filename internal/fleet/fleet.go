package fleet

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// DefaultMaxBatch bounds how many compatible run events coalesce into
// one dispatched unit batch.
const DefaultMaxBatch = 64

// memberShards is the chip-membership shard count, a power of two.
// Membership is the only ingest structure run events read under a lock;
// sharding it keeps concurrent submitters off each other's chips.
const memberShards = 32

// Config configures a Fleet.
type Config struct {
	// Workers is the worker-goroutine count (0 = GOMAXPROCS).
	Workers int
	// MaxBatch bounds events per dispatched unit batch (0 =
	// DefaultMaxBatch).
	MaxBatch int
	// Admission maps class names to token-bucket rates; classes without
	// an entry are unthrottled.
	Admission map[string]Rate
	// Apps is the service's application universe, resolved by event App
	// name (nil = the full proxy suite). Static-mode points are derived
	// per class over this universe, matching the batch experiments.
	Apps []workload.App
	// Training configures per-chip fuzzy-controller training; the zero
	// value means adapt.DefaultTrainOptions(). New validates it and
	// refuses to start on a bad set. Workers should stay 1 (the default
	// here, unlike the batch experiments): the fleet already saturates
	// cores with unit parallelism, and nested training pools would
	// oversubscribe.
	Training adapt.TrainOptions
	// Obs, when non-nil, receives fleet.pool.* gauges, event/unit
	// counters, and the fleet.ingest.lock_wait_ns contention counter.
	Obs *obs.Registry
}

// Fleet is the shared-clock discrete-event simulation service: chips
// join and leave, run events arrive as a request stream, and (chip, env,
// app, phase) units execute on each chip's owner worker, backed by the
// Simulator's artifact cache. See doc.go for the ordering and
// determinism contract.
//
// Ingest is sharded: sequence numbers are reserved per batch with one
// atomic add, the virtual clock is an atomic running maximum, chip
// membership lives in hash-sharded maps, admission buckets carry their
// own per-class locks, and owners are assigned from an atomic join
// count. No global lock exists on the event path.
type Fleet struct {
	sim  *core.Simulator
	cfg  Config
	apps map[string]workload.App

	seq    atomic.Int64 // batch-reserved; contiguous within a batch
	clock  atomic.Int64 // running max of submitted At values
	joined atomic.Int64 // chips admitted so far; picks each chip's owner

	shards [memberShards]memberShard

	buckets map[string]*TokenBucket // read-only after New

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
	lockWait *obs.Counter // nil when no registry: zero-cost timing gate
}

// memberShard is one slice of chip membership; join/leave write, run
// events read-lock. The padding keeps shard locks off one cache line.
type memberShard struct {
	mu sync.RWMutex
	m  map[int64]*chipEntry
	_  [64]byte
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
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = DefaultMaxBatch
	}
	if cfg.Apps == nil {
		cfg.Apps = workload.Suite()
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
	f := &Fleet{
		sim:      sim,
		cfg:      cfg,
		apps:     make(map[string]workload.App, len(cfg.Apps)),
		buckets:  make(map[string]*TokenBucket),
		queues:   make([]chan *unitTask, cfg.Workers),
		stats:    newStats(cfg.Workers),
		mon:      obs.NewPoolMonitor(cfg.Obs, "fleet.pool", cfg.Workers),
		lockWait: cfg.Obs.Counter("fleet.ingest.lock_wait_ns"),
	}
	for i := range f.shards {
		f.shards[i].m = make(map[int64]*chipEntry)
	}
	for _, app := range cfg.Apps {
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

// shardFor maps a chip to its membership shard.
func (f *Fleet) shardFor(chip int64) *memberShard {
	return &f.shards[fnv64(chip)%memberShards]
}

// fnv64 hashes a chip seed to spread chips over membership shards.
func fnv64(seed int64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(seed >> (8 * i)))
		h *= 1099511628211
	}
	return h
}

// Chips returns the current admitted-chip count.
func (f *Fleet) Chips() int {
	n := 0
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats renders the service telemetry snapshot.
func (f *Fleet) Stats() Snapshot {
	f.mon.Publish()
	snap := f.stats.snapshot()
	snap.Workers = f.cfg.Workers
	snap.Chips = f.Chips()
	return snap
}

// PublishGauges refreshes the fleet.pool.* gauges in Config.Obs, so a
// registry snapshot taken next reads current pool occupancy. Stats
// publishes them too.
func (f *Fleet) PublishGauges() { f.mon.Publish() }

// advanceClock folds one event timestamp into the virtual clock and
// returns the clock after the fold.
func (f *Fleet) advanceClock(at int64) int64 {
	for {
		cur := f.clock.Load()
		if at <= cur {
			return cur
		}
		if f.clock.CompareAndSwap(cur, at) {
			return at
		}
	}
}

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

	// One atomic reserves the batch's contiguous sequence block; the
	// scan below assigns them in submission order. Everything else on
	// the ingest path touches only sharded or per-class state.
	seqBase := f.seq.Add(int64(len(events))) - int64(len(events))
	for pos, ev := range events {
		seq := seqBase + int64(pos) + 1
		clock := f.advanceClock(ev.At)
		res := Result{
			Seq: seq, At: ev.At, Kind: ev.Kind, Class: ev.Class,
			Chip: ev.Chip, Env: ev.Env, Mode: ev.Mode, App: ev.App,
			Phase: ev.Phase, Status: StatusOK,
		}
		f.stats.events.Add(1)
		cls := f.stats.class(ev.Class)
		cls.events.Add(1)
		switch ev.Kind {
		case KindJoin:
			sh := f.shardFor(ev.Chip)
			f.timedLock(&sh.mu)
			_, dup := sh.m[ev.Chip]
			if !dup {
				owner := (f.joined.Add(1) - 1) % int64(f.cfg.Workers)
				sh.m[ev.Chip] = &chipEntry{seed: ev.Chip, worker: int(owner)}
			}
			sh.mu.Unlock()
			if dup {
				res.Status = StatusError
				res.Err = fmt.Sprintf("chip %d already joined", ev.Chip)
				cls.errors.Add(1)
			} else {
				cls.ok.Add(1)
			}
			sc.immediates = append(sc.immediates, immediate{pos, res})
		case KindLeave:
			sh := f.shardFor(ev.Chip)
			f.timedLock(&sh.mu)
			entry, ok := sh.m[ev.Chip]
			if ok {
				delete(sh.m, ev.Chip)
			}
			sh.mu.Unlock()
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
			// The unit registration (units.Add) must happen under the
			// shard read lock: a leave excludes readers while it unlinks
			// the entry, so every registered unit precedes its Wait.
			sh := f.shardFor(ev.Chip)
			f.timedRLock(&sh.mu)
			entry := sh.m[ev.Chip]
			if entry != nil {
				entry.units.Add(1)
			}
			sh.mu.RUnlock()
			if entry == nil {
				res.Status = StatusError
				res.Err = fmt.Sprintf("chip %d not joined", ev.Chip)
				cls.errors.Add(1)
				sc.immediates = append(sc.immediates, immediate{pos, res})
				continue
			}
			if msg := f.validateRun(ev); msg != "" {
				entry.units.Done()
				res.Status = StatusError
				res.Err = msg
				cls.errors.Add(1)
				sc.immediates = append(sc.immediates, immediate{pos, res})
				continue
			}
			if bucket, throttled := f.buckets[ev.Class]; throttled && !bucket.Allow(clock) {
				entry.units.Done()
				res.Status = StatusRejected
				res.Err = "admission: class rate exceeded"
				cls.rejected.Add(1)
				sc.immediates = append(sc.immediates, immediate{pos, res})
				continue
			}
			key := unitKey{chip: ev.Chip, env: ev.Env, mode: ev.Mode}
			t := sc.open[key]
			if t != nil && len(t.refs) >= f.cfg.MaxBatch {
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
			t.refs = append(t.refs, eventRef{b: b, cls: cls, pos: pos, ev: ev, seq: seq})
		default:
			res.Status = StatusError
			res.Err = fmt.Sprintf("unknown event kind %q", ev.Kind)
			cls.errors.Add(1)
			sc.immediates = append(sc.immediates, immediate{pos, res})
		}
	}
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

// timedLock and timedRLock acquire a shard lock, feeding acquisition
// wait into fleet.ingest.lock_wait_ns when a registry is attached (the
// nil counter skips the clock reads entirely).
func (f *Fleet) timedLock(mu *sync.RWMutex) {
	if f.lockWait == nil {
		mu.Lock()
		return
	}
	t0 := time.Now()
	mu.Lock()
	f.lockWait.Add(time.Since(t0).Nanoseconds())
}

func (f *Fleet) timedRLock(mu *sync.RWMutex) {
	if f.lockWait == nil {
		mu.RLock()
		return
	}
	t0 := time.Now()
	mu.RLock()
	f.lockWait.Add(time.Since(t0).Nanoseconds())
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
	var remaining []*chipEntry
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, e := range sh.m {
			remaining = append(remaining, e)
		}
		sh.m = make(map[int64]*chipEntry)
		sh.mu.Unlock()
	}
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
