package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// SchemaVersion is the store's on-disk layout version: 2 is the packed
// binary layout (sharded packfiles + persistent index). The index file
// records it, and Open rebuilds an index of any other version by
// scanning the packfiles; the CI cache key embeds it. A directory in the
// older one-file-per-artifact layout opens as an empty store.
const SchemaVersion = 2

// keySchema versions the key pre-image, not the storage layout. It has
// never been bumped — producers version their output through
// Kind.Version — and bumping it would re-key every stored entry.
const keySchema = 1

// Kind names one artifact producer and its version. The version is part
// of the key: bump it whenever the producer's output for the same
// (params, seed) changes, and every stale entry becomes a clean miss.
type Kind struct {
	Name    string
	Version int
}

// Options configures a Store.
type Options struct {
	// Obs receives cache counters; nil (the default) disables metrics
	// at zero cost.
	Obs *obs.Registry
}

// maxStoreBytes bounds the store's total size at 2 GiB: the LRU sweep
// evicts least-recently-used entries and compacts packfiles down to it.
// That is far above any experiment in this repo, so eviction only
// matters for long-lived shared caches.
const maxStoreBytes = 2 << 30

// sweepIntervalBytes is how many freshly written bytes accumulate before
// a write settles the store (LRU sweep, compaction, index save) on its
// own; Flush and Close always settle the remainder.
const sweepIntervalBytes = 1 << 20

// compactMinGarbage is the least garbage (superseded or evicted record
// bytes) a segment accumulates before a routine settle rewrites it; when
// the store is over its byte cap every garbage-bearing segment compacts
// regardless.
const compactMinGarbage = 256 << 10

// Store is a persistent content-addressed artifact cache rooted at one
// directory: N sharded packfiles of checksummed binary records plus a
// compact index (key → segment, offset, length). It is safe for
// concurrent use by multiple goroutines. Concurrent processes may share
// a directory read-only, but the packed layout assumes a single writing
// process at a time. All methods are safe on a nil *Store, where every
// lookup builds directly — a disabled cache costs one nil check.
//
// Put and GetOrBuild persist in the calling goroutine: the record is in
// its lock-striped segment and its index entry published before they
// return, so a store reads its own writes through the index, and a store
// opened on the directory afterwards (another process, or the next run
// after a crash) finds them too. Writes settle the store every
// sweepIntervalBytes; Flush settles it on demand, and Close does when the
// store wrote anything since Open.
type Store struct {
	dir      string
	maxBytes int64
	obs      *obs.Registry

	mu      sync.Mutex
	flights map[string]*flight
	index   map[string]idxEntry // live records; under mu
	garbage [numShards]int64    // superseded/evicted bytes per segment; under mu

	shards [numShards]shard

	// sweepMu serializes settles (LRU sweep, compaction, index save) and
	// the disk-byte accounting they publish: interleaved runs would tear
	// the artifact.cache.disk_bytes gauge.
	sweepMu    sync.Mutex
	dirtyBytes atomic.Int64 // bytes written since the last settle
	wrote      atomic.Bool  // a write since Open: Close settles only then
}

// flight is one in-process single-flight build: the first goroutine to
// request a key builds it while followers wait on done and then decode
// the same bytes.
type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// bufPool recycles read and record-encoding scratch so the warm path's
// pack reads and decodes allocate nothing per artifact.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 64<<10); return &b }}

// Open creates (if needed) the cache directory and returns a store,
// restoring the packfile index (rebuilding it from segment scans when
// missing or damaged, and recovering any records a crashed writer
// appended after the last index save).
func Open(dir string, opt Options) (*Store, error) {
	return open(dir, opt, maxStoreBytes)
}

// open is Open with the size cap as a parameter, so tests can sweep a
// small store.
func open(dir string, opt Options, maxBytes int64) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("artifact: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	index, sizes, garbage, scanned, rebuilt := loadIndex(dir, time.Now().UnixNano())
	s := &Store{
		dir:      dir,
		maxBytes: maxBytes,
		obs:      opt.Obs,
		flights:  make(map[string]*flight),
		index:    index,
		garbage:  garbage,
	}
	segments := 0
	for si := range s.shards {
		s.shards[si].path = packPath(dir, si)
		s.shards[si].size = sizes[si]
		if sizes[si] > 0 {
			segments++
		}
	}
	if rebuilt {
		s.obs.Counter("artifact.cache.index_rebuilds").Inc()
	}
	s.obs.Counter("artifact.cache.scan_bytes").Add(scanned)
	s.obs.Gauge("artifact.cache.segments").Set(float64(segments))
	return s, nil
}

// Resolve turns the shared CLI surface (-cache-dir, -no-cache, and the
// EVAL_CACHE_DIR environment variable) into a store: nil when caching is
// off. An explicit -cache-dir wins over the environment; -no-cache wins
// over both.
func Resolve(dirFlag string, noCache bool, opt Options) (*Store, error) {
	if noCache {
		return nil, nil
	}
	dir := dirFlag
	if dir == "" {
		dir = os.Getenv("EVAL_CACHE_DIR")
	}
	if dir == "" {
		return nil, nil
	}
	return Open(dir, opt)
}

// CacheFlags registers the -cache-dir and -no-cache flags every CLI
// shares on fs and returns the opener that resolves them (see Resolve)
// once fs is parsed.
func CacheFlags(fs *flag.FlagSet) func(Options) (*Store, error) {
	dir := fs.String("cache-dir", "", "persistent artifact cache directory (default off; falls back to $EVAL_CACHE_DIR)")
	off := fs.Bool("no-cache", false, "disable the artifact cache even if EVAL_CACHE_DIR is set")
	return func(opt Options) (*Store, error) { return Resolve(*dir, *off, opt) }
}

// Dir returns the store's root directory ("" on a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Flush settles the store — LRU sweep, compaction of garbage-heavy
// segments, and an index save — waiting for a settle another goroutine
// is running. Every write is already in its segment when it returns;
// after Flush the saved index covers each write that returned before it,
// so a store opened on the directory next need not scan for them.
func (s *Store) Flush() {
	if s == nil {
		return
	}
	s.settle(true)
}

// Close settles the store (see Flush) if it wrote anything since Open,
// and closes the segment handles. A store that only read leaves its
// directory untouched — no eviction, compaction, debris sweep or index
// save — so a reader never rewrites a segment a writing process still
// appends to; the atimes its hits bumped stay in memory. Idempotent and
// nil-safe. The store remains usable after Close: a later read or write
// reopens the handle it needs.
func (s *Store) Close() {
	if s == nil {
		return
	}
	if s.wrote.Load() {
		s.settle(true)
	}
	for si := range s.shards {
		s.shards[si].closeHandles()
	}
}

// keyEnvelope is the canonical pre-image of an entry key.
type keyEnvelope struct {
	Schema  int    `json:"schema"`
	Kind    string `json:"kind"`
	Version int    `json:"version"`
	Params  any    `json:"params"`
	Seed    int64  `json:"seed"`
}

// Key derives the content address of (kind, params, seed): the SHA-256
// of the canonical JSON key envelope. params must JSON-marshal
// deterministically (plain structs and slices do; maps do not belong in
// key parameter structs).
func Key(kind Kind, params any, seed int64) (string, error) {
	blob, err := json.Marshal(keyEnvelope{
		Schema:  keySchema,
		Kind:    kind.Name,
		Version: kind.Version,
		Params:  params,
		Seed:    seed,
	})
	if err != nil {
		return "", fmt.Errorf("artifact: keying %s params: %w", kind.Name, err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// EncodedKey is Key for a caller that already holds the params' JSON:
// it hashes the same envelope with params spliced in verbatim, encoding
// nothing itself. The params pieces, concatenated, must be exactly what
// json.Marshal returns for the params value; then the result equals
// Key(kind, value, seed). Callers that key many values sharing large
// sub-structures encode those once and reuse the bytes.
func EncodedKey(kind Kind, seed int64, params ...[]byte) string {
	name, _ := json.Marshal(kind.Name) // a string always encodes
	var buf [96]byte
	b := append(buf[:0], `{"schema":`...)
	b = strconv.AppendInt(b, keySchema, 10)
	b = append(b, `,"kind":`...)
	b = append(b, name...)
	b = append(b, `,"version":`...)
	b = strconv.AppendInt(b, int64(kind.Version), 10)
	b = append(b, `,"params":`...)
	h := sha256.New()
	h.Write(b)
	for _, p := range params {
		h.Write(p)
	}
	b = append(buf[:0], `,"seed":`...)
	b = strconv.AppendInt(b, seed, 10)
	h.Write(append(b, '}'))
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// GetOrBuild returns the artifact for key, building it at most once per
// process. On a cache hit decode receives the stored payload; when build
// runs, decode is NOT called — the builder already holds the object and
// returns its serialized form for the store. A corrupt record (checksum,
// framing, or decode failure) counts as a miss, rebuilds, and
// supersedes the record. The returned error is build's; cache I/O
// problems never surface as errors.
//
// The payload slice passed to decode is only valid for the duration of
// the call: it may alias pooled read scratch.
func (s *Store) GetOrBuild(kind Kind, key string, decode func([]byte) error, build func() ([]byte, error)) error {
	if s == nil {
		_, err := build()
		return err
	}
	flightKey := fkeyOf(kind.Name, key)

	s.mu.Lock()
	if f, ok := s.flights[flightKey]; ok {
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return f.err
		}
		return decode(f.payload)
	}
	f := &flight{done: make(chan struct{})}
	s.flights[flightKey] = f
	s.mu.Unlock()

	defer func() {
		close(f.done)
		s.mu.Lock()
		delete(s.flights, flightKey)
		s.mu.Unlock()
	}()

	if payload, release, ok := s.read(kind, key); ok {
		err := decode(payload)
		if err == nil {
			s.count(kind, "hits")
			// Followers decode after this goroutine returns; give them a
			// stable copy rather than the pooled read buffer.
			f.payload = append([]byte(nil), payload...)
			release()
			return nil
		}
		release()
		// Payload passed the checksum but its consumer rejects it: a
		// stale producer whose Kind.Version was not bumped, or a
		// hand-edited entry. Same degradation path as corruption.
		s.count(kind, "corrupt")
	}
	s.count(kind, "misses")

	payload, err := build()
	if err != nil {
		f.err = err
		return err
	}
	f.payload = payload
	s.write(kind, key, payload)
	return nil
}

// Get returns the artifact for key if an intact record exists, feeding
// the payload to decode. Unlike GetOrBuild it never builds: absence or
// corruption simply returns false, and the caller produces (or skips)
// the object itself. The payload passed to decode is only valid during
// the call. Nil-safe, like every Store method.
func (s *Store) Get(kind Kind, key string, decode func([]byte) error) bool {
	if s == nil {
		return false
	}
	payload, release, ok := s.read(kind, key)
	if !ok {
		s.count(kind, "misses")
		return false
	}
	err := decode(payload)
	release()
	if err != nil {
		s.count(kind, "corrupt")
		s.count(kind, "misses")
		return false
	}
	s.count(kind, "hits")
	return true
}

// Put persists payload under key, superseding any existing record. The
// complement of Get for artifacts whose build has no single call site to
// wrap (e.g. tables accumulated lazily over a run). Failures are counted
// and swallowed; nil-safe.
func (s *Store) Put(kind Kind, key string, payload []byte) {
	if s == nil {
		return
	}
	s.write(kind, key, payload)
}

// read resolves (kind, key) to its payload through the packfile index.
// ok=false means a miss; damage is counted as corrupt. The returned
// release must be called once the payload has been consumed.
func (s *Store) read(kind Kind, key string) (payload []byte, release func(), ok bool) {
	fkey := fkeyOf(kind.Name, key)
	s.mu.Lock()
	e, found := s.index[fkey]
	if found {
		e.atime = time.Now().UnixNano()
		s.index[fkey] = e // LRU recency, durable at the next index save
	}
	s.mu.Unlock()

	if !found {
		return nil, nil, false
	}
	if payload, release, ok := s.readPack(kind, fkey, e); ok {
		return payload, release, true
	}
	// Index/segment mismatch or a damaged record: drop the entry (if it
	// has not been remapped meanwhile) and report a miss.
	s.count(kind, "corrupt")
	s.mu.Lock()
	if cur, still := s.index[fkey]; still && cur.shard == e.shard && cur.off == e.off {
		delete(s.index, fkey)
		s.garbage[e.shard] += e.size
	}
	s.mu.Unlock()
	return nil, nil, false
}

// readPack preads and verifies one record. The returned payload aliases
// pooled scratch; release returns it.
func (s *Store) readPack(kind Kind, fkey string, e idxEntry) (payload []byte, release func(), ok bool) {
	sw := s.obs.Timer("artifact.cache.decode_ns").Start()
	defer sw.Stop()
	buf := bufPool.Get().(*[]byte)
	blob, err := s.shards[e.shard].readAt(*buf, e.off, e.size)
	if err != nil {
		bufPool.Put(buf)
		return nil, nil, false
	}
	*buf = blob
	rec, valid := parseRecord(blob)
	if !valid || rec.size != e.size || fkeyOf(rec.kind, rec.key) != fkey {
		bufPool.Put(buf)
		return nil, nil, false
	}
	return rec.payload, func() { bufPool.Put(buf) }, true
}

// write persists one entry and settles the store once
// sweepIntervalBytes have accumulated since the last settle.
func (s *Store) write(kind Kind, key string, payload []byte) {
	s.wrote.Store(true)
	if s.dirtyBytes.Add(s.persist(kind, key, payload)) >= sweepIntervalBytes {
		s.settle(false)
	}
}

// persist frames one record, appends it to its segment and publishes its
// index entry before releasing the stripe lock — stripe lock, then mu,
// as compactShard takes them — so no compaction rewrites the segment
// without a record the index points into. It returns the framed size, 0
// on a failure, which is counted and swallowed: the cache never fails
// the run that built the artifact.
func (s *Store) persist(kind Kind, key string, payload []byte) int64 {
	sw := s.obs.Timer("artifact.cache.encode_ns").Start()
	buf := bufPool.Get().(*[]byte)
	defer bufPool.Put(buf)
	blob, err := appendRecord((*buf)[:0], kind.Name, key, payload)
	*buf = blob
	sw.Stop()
	if err != nil {
		s.obs.Counter("artifact.cache.write_errors").Inc()
		return 0
	}
	si := shardOf(key)
	sh := &s.shards[si]
	size := int64(len(blob))
	sh.mu.Lock()
	off, err := sh.append(blob)
	if err != nil {
		sh.mu.Unlock()
		s.obs.Counter("artifact.cache.write_errors").Inc()
		return 0
	}
	fkey := fkeyOf(kind.Name, key)
	s.mu.Lock()
	if old, ok := s.index[fkey]; ok {
		s.garbage[old.shard] += old.size
	}
	s.index[fkey] = idxEntry{kind: kind.Name, shard: si, off: off, size: size, atime: time.Now().UnixNano()}
	s.mu.Unlock()
	sh.mu.Unlock()
	s.obs.Counter("artifact.cache.bytes").Add(size)
	if off == 0 {
		s.refreshSegmentsGauge()
	}
	return size
}

// refreshSegmentsGauge republishes the live segment count.
func (s *Store) refreshSegmentsGauge() {
	n := 0
	for si := range s.shards {
		s.shards[si].mu.Lock()
		if s.shards[si].size > 0 {
			n++
		}
		s.shards[si].mu.Unlock()
	}
	s.obs.Gauge("artifact.cache.segments").Set(float64(n))
}

// count bumps the global and per-kind counter of one event class.
func (s *Store) count(kind Kind, event string) {
	s.obs.Counter("artifact.cache." + event).Inc()
	s.obs.Counter("artifact.cache." + kind.Name + "." + event).Inc()
}

// settle runs the store's maintenance pass — LRU eviction, segment
// compaction, index save, disk accounting — under sweepMu. Flush and
// Close force it; a write that takes dirtyBytes past sweepIntervalBytes
// runs it unforced, which skips while another goroutine is settling
// (the bytes stay counted for the next write).
func (s *Store) settle(force bool) {
	if force {
		s.sweepMu.Lock()
	} else if !s.sweepMu.TryLock() {
		return
	}
	defer s.sweepMu.Unlock()
	if !force && s.dirtyBytes.Load() < sweepIntervalBytes {
		return // a settle that finished meanwhile covered these bytes
	}
	s.dirtyBytes.Store(0)

	// Snapshot the live set.
	type liveEntry struct {
		fkey string
		e    idxEntry
	}
	s.mu.Lock()
	live := make([]liveEntry, 0, len(s.index))
	var liveBytes int64
	for fkey, e := range s.index {
		live = append(live, liveEntry{fkey: fkey, e: e})
		liveBytes += e.size
	}
	garbage := s.garbage
	s.mu.Unlock()

	// Eviction: the packed layout reclaims pack bytes at compaction,
	// so the budget compares the post-compaction footprint (live
	// records plus a small index overhead) against the cap, and
	// evicts least-recently-used records until it fits.
	// Approximate index cost: ~50 encoded bytes per entry plus the
	// header. Slightly high is fine; wildly high would over-evict.
	indexOverhead := int64(56)*int64(len(live)) + 128
	if excess := liveBytes + indexOverhead - s.maxBytes; excess > 0 {
		sort.Slice(live, func(i, j int) bool { return live[i].e.atime < live[j].e.atime })
		for _, le := range live {
			if excess <= 0 {
				break
			}
			s.mu.Lock()
			if e, ok := s.index[le.fkey]; ok {
				delete(s.index, le.fkey)
				s.garbage[e.shard] += e.size
				garbage[e.shard] += e.size
				excess -= le.e.size
				s.obs.Counter("artifact.cache.evictions").Inc()
			}
			s.mu.Unlock()
		}
	}
	// Compaction reclaims garbage (superseded and evicted records).
	// Eviction above budgets on live bytes; the on-disk footprint is
	// the segment files themselves, so when those exceed the cap every
	// garbage-bearing segment compacts. Otherwise only segments whose
	// garbage passed the threshold and half the file are rewritten.
	var sizes [numShards]int64
	var packBytes int64
	for si := range s.shards {
		s.shards[si].mu.Lock()
		sizes[si] = s.shards[si].size
		s.shards[si].mu.Unlock()
		packBytes += sizes[si]
	}
	overCap := packBytes+indexOverhead > s.maxBytes
	for si := range s.shards {
		if garbage[si] == 0 {
			continue
		}
		if overCap || (garbage[si] >= compactMinGarbage && garbage[si]*2 >= sizes[si]) {
			s.compactShard(si)
		}
	}

	// Clear root-level temp debris a crashed settle may have left (failed
	// index saves, abandoned compactions) once it is old enough that no
	// live rename can still claim it.
	if des, err := os.ReadDir(s.dir); err == nil {
		for _, de := range des {
			name := de.Name()
			if de.IsDir() ||
				(!strings.HasPrefix(name, ".index.tmp-") && !strings.HasPrefix(name, ".pack-compact-")) {
				continue
			}
			if info, err := de.Info(); err == nil && time.Since(info.ModTime()) > time.Minute {
				os.Remove(filepath.Join(s.dir, name))
			}
		}
	}

	s.saveIndex()

	// Publish the exact on-disk footprint.
	var total int64
	for si := range s.shards {
		if info, err := os.Stat(s.shards[si].path); err == nil {
			total += info.Size()
		}
	}
	if info, err := os.Stat(filepath.Join(s.dir, indexName)); err == nil {
		total += info.Size()
	}
	s.obs.Gauge("artifact.cache.disk_bytes").Set(float64(total))
	s.refreshSegmentsGauge()
}

// compactShard rewrites segment si with only its live records, in offset
// order, and atomically renames the result into place. The stripe lock
// blocks appends for the duration; readers holding the old descriptor
// keep reading the old inode, and the swap retires it.
func (s *Store) compactShard(si int) {
	sh := &s.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()

	path := sh.path
	old, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return
	}

	type move struct {
		fkey string
		e    idxEntry
	}
	var moves []move
	s.mu.Lock()
	for fkey, e := range s.index {
		if e.shard == si {
			moves = append(moves, move{fkey: fkey, e: e})
		}
	}
	s.mu.Unlock()
	sort.Slice(moves, func(i, j int) bool { return moves[i].e.off < moves[j].e.off })

	fresh := make([]byte, 0, len(old))
	newOff := make([]int64, len(moves))
	for i, m := range moves {
		if m.e.off+m.e.size > int64(len(old)) {
			newOff[i] = -1 // stale entry; drop below
			continue
		}
		newOff[i] = int64(len(fresh))
		fresh = append(fresh, old[m.e.off:m.e.off+m.e.size]...)
	}

	tmp, err := os.CreateTemp(s.dir, ".pack-compact-")
	if err != nil {
		s.obs.Counter("artifact.cache.write_errors").Inc()
		return
	}
	if _, err := tmp.Write(fresh); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.obs.Counter("artifact.cache.write_errors").Inc()
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.obs.Counter("artifact.cache.write_errors").Inc()
		return
	}
	if len(fresh) == 0 {
		os.Remove(tmp.Name())
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return
		}
	} else if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		s.obs.Counter("artifact.cache.write_errors").Inc()
		return
	}

	// Publish the new geometry: remap the moved entries, reset the
	// shard's size and garbage, and retire the old read descriptor. The
	// write handle reopens lazily in append mode at the new tail.
	s.mu.Lock()
	for i, m := range moves {
		cur, ok := s.index[m.fkey]
		// Compare locations, not whole entries: a concurrent read may have
		// bumped the atime, which does not supersede the record.
		if !ok || cur.shard != m.e.shard || cur.off != m.e.off || cur.size != m.e.size {
			continue // superseded or evicted during the rewrite
		}
		if newOff[i] < 0 {
			delete(s.index, m.fkey)
			continue
		}
		cur.off = newOff[i]
		s.index[m.fkey] = cur
	}
	s.garbage[si] = 0
	s.mu.Unlock()
	if sh.w != nil {
		sh.w.Close()
		sh.w = nil
	}
	sh.size = int64(len(fresh))
	sh.swapReadHandle()
	s.obs.Counter("artifact.cache.compactions").Inc()
}

// saveIndex atomically writes the index file. The covered lengths are
// read before the entry snapshot: every record inside them published its
// entry before its append released the stripe lock, so the snapshot holds
// it (or what superseded it), and a record appended after them is
// re-found by the next Open's tail scan.
func (s *Store) saveIndex() {
	var covered [numShards]int64
	for si := range s.shards {
		s.shards[si].mu.Lock()
		covered[si] = s.shards[si].size
		s.shards[si].mu.Unlock()
	}
	s.mu.Lock()
	snapshot := make(map[string]idxEntry, len(s.index))
	for k, v := range s.index {
		snapshot[k] = v
	}
	s.mu.Unlock()
	blob := encodeIndex(snapshot, covered)
	tmp, err := os.CreateTemp(s.dir, ".index.tmp-")
	if err != nil {
		s.obs.Counter("artifact.cache.write_errors").Inc()
		return
	}
	_, werr := tmp.Write(blob)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		s.obs.Counter("artifact.cache.write_errors").Inc()
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(s.dir, indexName)); err != nil {
		os.Remove(tmp.Name())
		s.obs.Counter("artifact.cache.write_errors").Inc()
	}
}
