package artifact

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

var testKind = Kind{Name: "test", Version: 1}

// payload is a toy artifact whose decode validates its own content, like
// the real codecs do.
type payload struct {
	Value int    `json:"value"`
	Blob  string `json:"blob"`
}

func (p *payload) decode(b []byte) error {
	if err := json.Unmarshal(b, p); err != nil {
		return err
	}
	if p.Blob == "" {
		return fmt.Errorf("empty blob")
	}
	return nil
}

func buildPayload(v int) func() ([]byte, error) {
	return func() ([]byte, error) {
		return json.Marshal(payload{Value: v, Blob: "data"})
	}
}

func openTestStore(t *testing.T) (*Store, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	st, err := Open(t.TempDir(), Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st, reg
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Counter(name).Value()
}

// get runs one GetOrBuild of key with build value v and returns the
// decoded payload.
func get(t *testing.T, st *Store, key string, v int) payload {
	t.Helper()
	var p payload
	err := st.GetOrBuild(testKind, key,
		func(b []byte) error { return p.decode(b) },
		func() ([]byte, error) {
			b, err := buildPayload(v)()
			if err != nil {
				return nil, err
			}
			return b, p.decode(b)
		})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKeyDerivation(t *testing.T) {
	type params struct{ A, B int }
	k1, err := Key(testKind, params{1, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	k2, _ := Key(testKind, params{1, 2}, 3)
	if k1 != k2 {
		t.Fatal("key not deterministic")
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not sha256 hex", k1)
	}
	// Any input change must change the key.
	for name, k := range map[string]func() (string, error){
		"params":  func() (string, error) { return Key(testKind, params{9, 2}, 3) },
		"seed":    func() (string, error) { return Key(testKind, params{1, 2}, 4) },
		"version": func() (string, error) { return Key(Kind{Name: "test", Version: 2}, params{1, 2}, 3) },
		"kind":    func() (string, error) { return Key(Kind{Name: "other", Version: 1}, params{1, 2}, 3) },
	} {
		other, err := k()
		if err != nil {
			t.Fatal(err)
		}
		if other == k1 {
			t.Errorf("changing %s did not change the key", name)
		}
	}
}

// TestEncodedKeyMatchesKey: hashing the envelope around params' own
// JSON, in one piece or split anywhere, gives Key's result, for kind
// names and params that JSON must escape.
func TestEncodedKeyMatchesKey(t *testing.T) {
	type params struct {
		Name string  `json:"name"`
		X    float64 `json:"x"`
		N    []int   `json:"n,omitempty"`
	}
	for _, c := range []struct {
		kind   Kind
		params params
		seed   int64
	}{
		{testKind, params{Name: "plain", X: 1}, 0},
		{Kind{Name: "apprun", Version: 1}, params{Name: "a<b>&\"c\\", X: math.Copysign(0, -1), N: []int{1, 2}}, -7},
		{Kind{Name: "k\u2028\xff<&>", Version: 12}, params{Name: "\u2028\xfe", X: 1e21}, 1 << 62},
	} {
		want, err := Key(c.kind, c.params, c.seed)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := json.Marshal(c.params)
		if err != nil {
			t.Fatal(err)
		}
		if got := EncodedKey(c.kind, c.seed, enc); got != want {
			t.Errorf("%q: EncodedKey = %s, Key = %s", c.kind.Name, got, want)
		}
		for cut := 0; cut <= len(enc); cut += 3 {
			if got := EncodedKey(c.kind, c.seed, enc[:cut], nil, enc[cut:]); got != want {
				t.Fatalf("%q split at %d: EncodedKey = %s, Key = %s", c.kind.Name, cut, got, want)
			}
		}
	}
}

func TestMissThenHit(t *testing.T) {
	st, reg := openTestStore(t)
	key, _ := Key(testKind, 1, 1)
	if p := get(t, st, key, 42); p.Value != 42 {
		t.Fatalf("built %+v", p)
	}
	if p := get(t, st, key, 43); p.Value != 42 {
		t.Fatalf("warm read should return the stored 42, got %+v", p)
	}
	if h := counter(reg, "artifact.cache.hits"); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
	if m := counter(reg, "artifact.cache.misses"); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
	if k := counter(reg, "artifact.cache.test.hits"); k != 1 {
		t.Errorf("per-kind hits = %d, want 1", k)
	}
}

// TestPersistsAcrossStores: a second store on the same directory (a new
// process) sees the first store's entries.
func TestPersistsAcrossStores(t *testing.T) {
	dir := t.TempDir()
	st1, _ := Open(dir, Options{})
	t.Cleanup(st1.Close)
	key, _ := Key(testKind, 1, 1)
	get(t, st1, key, 7)
	// Flush saves the index the second store opens.
	st1.Flush()

	reg := obs.NewRegistry()
	st2, _ := Open(dir, Options{Obs: reg})
	t.Cleanup(st2.Close)
	if p := get(t, st2, key, 8); p.Value != 7 {
		t.Fatalf("second store rebuilt instead of loading: %+v", p)
	}
	if h := counter(reg, "artifact.cache.hits"); h != 1 {
		t.Errorf("hits = %d, want 1", h)
	}
}

// entryLoc looks up key's current packfile location.
func entryLoc(t *testing.T, st *Store, key string) idxEntry {
	t.Helper()
	st.mu.Lock()
	e, ok := st.index[fkeyOf(testKind.Name, key)]
	st.mu.Unlock()
	if !ok {
		t.Fatalf("key %s not in index", key)
	}
	return e
}

// corruptRecord flushes the store and mutates key's record bytes in
// place inside its packfile. mutate must preserve the record's length so
// later appends stay aligned — mid-file damage is exactly what a bad
// disk produces.
func corruptRecord(t *testing.T, st *Store, key string, mutate func([]byte) []byte) {
	t.Helper()
	st.Flush()
	e := entryLoc(t, st, key)
	path := packPath(st.dir, e.shard)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rec := mutate(append([]byte(nil), blob[e.off:e.off+e.size]...))
	if int64(len(rec)) != e.size {
		t.Fatalf("mutate changed record length %d -> %d", e.size, len(rec))
	}
	copy(blob[e.off:], rec)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFaultInjection covers the damaged-record scenarios: each must count
// a corrupt + a miss, rebuild the correct value, and supersede the record
// so the next read hits again.
func TestFaultInjection(t *testing.T) {
	scenarios := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"flipped_payload_byte", func(b []byte) []byte {
			b[len(b)-8] ^= 0x40 // inside the payload, before the crc
			return b
		}},
		{"zeroed_magic", func(b []byte) []byte {
			b[0], b[1], b[2], b[3] = 0, 0, 0, 0
			return b
		}},
		{"flipped_crc", func(b []byte) []byte {
			b[len(b)-1] ^= 0xff
			return b
		}},
		{"zeroed_record", func(b []byte) []byte {
			for i := range b {
				b[i] = 0
			}
			return b
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			st, reg := openTestStore(t)
			key, _ := Key(testKind, sc.name, 1)
			get(t, st, key, 42)
			corruptRecord(t, st, key, sc.mutate)
			if p := get(t, st, key, 42); p.Value != 42 {
				t.Fatalf("damaged record produced wrong result: %+v", p)
			}
			if c := counter(reg, "artifact.cache.corrupt"); c != 1 {
				t.Errorf("corrupt = %d, want 1", c)
			}
			if m := counter(reg, "artifact.cache.misses"); m != 2 {
				t.Errorf("misses = %d, want 2 (initial + rebuild)", m)
			}
			// The rebuild must have superseded the damaged record on disk.
			st.Flush()
			if p := get(t, st, key, 99); p.Value != 42 {
				t.Fatalf("rebuilt entry not persisted: %+v", p)
			}
			if h := counter(reg, "artifact.cache.hits"); h != 1 {
				t.Errorf("hits = %d, want 1 after rebuild", h)
			}
		})
	}
}

// TestUndecodablePayload: an intact record whose payload the consumer
// rejects (stale producer output) degrades to a counted rebuild too.
func TestUndecodablePayload(t *testing.T) {
	st, reg := openTestStore(t)
	key, _ := Key(testKind, "undecodable", 1)
	get(t, st, key, 42)
	// Supersede the record with a well-formed payload the decoder rejects
	// (empty blob).
	bad, _ := json.Marshal(payload{Value: 1, Blob: ""})
	st.write(testKind, key, bad)
	if p := get(t, st, key, 42); p.Value != 42 {
		t.Fatalf("rejected payload produced wrong result: %+v", p)
	}
	if c := counter(reg, "artifact.cache.corrupt"); c != 1 {
		t.Errorf("corrupt = %d, want 1", c)
	}
}

// TestSingleFlight: concurrent requests for one missing key build once.
func TestSingleFlight(t *testing.T) {
	st, _ := openTestStore(t)
	key, _ := Key(testKind, "flight", 1)
	var builds atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, 32)
	vals := make([]payload, 32)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			errs[g] = st.GetOrBuild(testKind, key,
				func(b []byte) error { return vals[g].decode(b) },
				func() ([]byte, error) {
					builds.Add(1)
					b, err := buildPayload(42)()
					if err != nil {
						return nil, err
					}
					return b, vals[g].decode(b)
				})
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if vals[g].Value != 42 {
			t.Fatalf("goroutine %d got %+v", g, vals[g])
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
}

// TestConcurrentReadersDuringAppend: reader goroutines hammer keys while
// a writer continuously supersedes them and forces settles (sweep,
// compaction, index saves) to race the reads. The payload of key k
// always encodes k, so every read must come back correct whichever
// record version it lands on. Run under -race.
func TestConcurrentReadersDuringAppend(t *testing.T) {
	st, _ := openTestStore(t)
	const keys = 4
	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key, _ := Key(testKind, i%keys, 1)
			b, _ := buildPayload(i % keys)()
			st.Put(testKind, key, b)
			if i%17 == 0 {
				st.Flush()
			}
		}
	}()
	for g := 0; g < 4; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			for i := 0; i < 300; i++ {
				want := i % keys
				key, _ := Key(testKind, want, 1)
				var p payload
				err := st.GetOrBuild(testKind, key,
					func(b []byte) error { return p.decode(b) },
					func() ([]byte, error) {
						b, err := buildPayload(want)()
						if err != nil {
							return nil, err
						}
						return b, p.decode(b)
					})
				if err != nil {
					t.Errorf("read %d: %v", i, err)
					return
				}
				if p.Value != want {
					t.Errorf("read %d: got %d, want %d", i, p.Value, want)
					return
				}
			}
		}()
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
}

// TestBuildErrorNotCached: a failing build propagates its error and
// leaves no entry behind.
func TestBuildErrorNotCached(t *testing.T) {
	st, _ := openTestStore(t)
	key, _ := Key(testKind, "err", 1)
	wantErr := fmt.Errorf("boom")
	err := st.GetOrBuild(testKind, key,
		func([]byte) error { return nil },
		func() ([]byte, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	if p := get(t, st, key, 5); p.Value != 5 {
		t.Fatalf("entry was cached despite build error: %+v", p)
	}
}

// TestNilStore: a nil store builds directly and never crashes.
func TestNilStore(t *testing.T) {
	var st *Store
	if st.Dir() != "" {
		t.Fatal("nil store has a dir")
	}
	ran := false
	err := st.GetOrBuild(testKind, "ignored",
		func([]byte) error { t.Fatal("decode on nil store"); return nil },
		func() ([]byte, error) { ran = true; return nil, nil })
	if err != nil || !ran {
		t.Fatalf("nil store: err=%v ran=%v", err, ran)
	}
}

// TestLRUSweep: pushing the store past its size cap evicts the least
// recently used entries, compaction reclaims their bytes, and the newest
// entries survive.
func TestLRUSweep(t *testing.T) {
	reg := obs.NewRegistry()
	const maxBytes = 1500
	st, err := open(t.TempDir(), Options{Obs: reg}, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	big := strings.Repeat("x", 300)
	var keys []string
	for i := 0; i < 8; i++ {
		key, _ := Key(testKind, i, 1)
		keys = append(keys, key)
		blob, _ := json.Marshal(payload{Value: i, Blob: big})
		st.Put(testKind, key, blob)
		// Settle each write so the sweep sees entries in insertion order
		// (atime == write order) and the newest survives deterministically.
		st.Flush()
	}
	if ev := counter(reg, "artifact.cache.evictions"); ev == 0 {
		t.Fatal("no evictions despite exceeding the cap")
	}
	var total int64
	filepath.WalkDir(st.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, _ := d.Info()
		total += info.Size()
		return nil
	})
	if total > maxBytes {
		t.Fatalf("store holds %d bytes, cap %d", total, maxBytes)
	}
	// The newest entry must have survived, and the oldest must be gone.
	var p payload
	if !st.Get(testKind, keys[len(keys)-1], p.decode) || p.Value != 7 {
		t.Fatalf("newest entry evicted (got %+v)", p)
	}
	if st.Get(testKind, keys[0], p.decode) {
		t.Fatal("oldest entry survived a full sweep")
	}
}

// TestV1DirectoryOpensEmpty: a directory in the older layout (one JSON
// envelope file per entry under <kind>/<key[:2]>/<key>.json) opens as an
// empty store. Its entry is neither served nor counted corrupt, and the
// store leaves the file in place.
func TestV1DirectoryOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	key, _ := Key(testKind, "v1", 1)
	path := filepath.Join(dir, testKind.Name, key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	blob, _ := buildPayload(31)()
	envelope := fmt.Sprintf(`{"schema":1,"kind":%q,"key":%q,"payload":%s}`, testKind.Name, key, blob)
	if err := os.WriteFile(path, []byte(envelope), 0o644); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	var p payload
	if st.Get(testKind, key, p.decode) {
		t.Fatalf("v1 entry served as a hit: %+v", p)
	}
	if c := counter(reg, "artifact.cache.corrupt"); c != 0 {
		t.Errorf("corrupt = %d, want 0", c)
	}
	st.Close()
	if got, err := os.ReadFile(path); err != nil || string(got) != envelope {
		t.Fatalf("v1 file changed or removed: %v", err)
	}
}

// TestTruncatedTailRecovery: a crashed writer leaves a partial record at
// a segment tail; the next Open truncates it away and every complete
// record stays readable.
func TestTruncatedTailRecovery(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key(testKind, "tail", 1)
	get(t, st, key, 13)
	st.Flush()
	e := entryLoc(t, st, key)
	st.Close()

	// Remove the saved index (so recovery runs off the scan alone) and
	// append half a record to the segment.
	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	path := packPath(dir, e.shard)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	partial := blob[e.off : e.off+e.size/2]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(partial)
	f.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st2.Close)
	if p := get(t, st2, key, 99); p.Value != 13 {
		t.Fatalf("record lost after tail recovery: %+v", p)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != int64(len(blob)) {
		t.Fatalf("partial tail not truncated: size %d, want %d", info.Size(), len(blob))
	}
}

// TestIndexMismatchRebuild covers the saved-index failure modes: a
// deleted or corrupted index rebuilds from a segment scan, and a segment
// truncated below its covered length rescans from zero.
func TestIndexMismatchRebuild(t *testing.T) {
	writeEntries := func(t *testing.T, dir string, n int) []string {
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for i := 0; i < n; i++ {
			key, _ := Key(testKind, i, 1)
			keys = append(keys, key)
			get(t, st, key, i)
		}
		st.Close()
		return keys
	}
	reopenAndCheck := func(t *testing.T, dir string, keys []string, missing map[int]bool) int64 {
		reg := obs.NewRegistry()
		st, err := Open(dir, Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i, key := range keys {
			var p payload
			got := st.Get(testKind, key, p.decode)
			if missing[i] {
				if got {
					t.Errorf("entry %d should be lost", i)
				}
				continue
			}
			if !got || p.Value != i {
				t.Errorf("entry %d lost or wrong: got=%v %+v", i, got, p)
			}
		}
		return counter(reg, "artifact.cache.index_rebuilds")
	}

	t.Run("deleted_index", func(t *testing.T) {
		dir := t.TempDir()
		keys := writeEntries(t, dir, 6)
		if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
			t.Fatal(err)
		}
		reopenAndCheck(t, dir, keys, nil)
	})

	t.Run("corrupt_index", func(t *testing.T) {
		dir := t.TempDir()
		keys := writeEntries(t, dir, 6)
		path := filepath.Join(dir, indexName)
		blob, _ := os.ReadFile(path)
		blob[len(blob)/2] ^= 0xff
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if rebuilds := reopenAndCheck(t, dir, keys, nil); rebuilds != 1 {
			t.Errorf("index_rebuilds = %d, want 1", rebuilds)
		}
	})

	t.Run("truncated_segment", func(t *testing.T) {
		dir := t.TempDir()
		st, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Two entries in one segment: craft keys until two share a shard.
		var keys []string
		var locs []idxEntry
		for i := 0; len(keys) < 2; i++ {
			key, _ := Key(testKind, fmt.Sprintf("seg-%d", i), 1)
			if len(keys) == 1 {
				first := entryLoc(t, st, keys[0])
				if shardOf(key) != first.shard {
					continue
				}
			}
			get(t, st, key, len(keys))
			st.Flush()
			keys = append(keys, key)
			locs = append(locs, entryLoc(t, st, key))
		}
		st.Close()
		// Truncate the segment below the index's covered length, keeping
		// only the first record: the shard must rescan from zero, recover
		// entry 0, and drop entry 1.
		path := packPath(dir, locs[0].shard)
		if err := os.Truncate(path, locs[0].size); err != nil {
			t.Fatal(err)
		}
		st2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st2.Close()
		var p payload
		if !st2.Get(testKind, keys[0], p.decode) || p.Value != 0 {
			t.Fatalf("surviving record lost after rescan: %+v", p)
		}
		if st2.Get(testKind, keys[1], p.decode) {
			t.Fatal("truncated-away record still served")
		}
	})
}

func TestResolve(t *testing.T) {
	dir := t.TempDir()
	if st, err := Resolve("", true, Options{}); err != nil || st != nil {
		t.Fatalf("no-cache: %v %v", st, err)
	}
	if st, err := Resolve("", false, Options{}); err != nil || st != nil {
		t.Fatalf("default off: %v %v", st, err)
	}
	st, err := Resolve(dir, false, Options{})
	if err != nil || st == nil || st.Dir() != dir {
		t.Fatalf("explicit dir: %v %v", st, err)
	}
	st.Close()
	t.Setenv("EVAL_CACHE_DIR", dir)
	st, err = Resolve("", false, Options{})
	if err != nil || st == nil || st.Dir() != dir {
		t.Fatalf("env dir: %v %v", st, err)
	}
	st.Close()
	if st, err := Resolve("", true, Options{}); err != nil || st != nil {
		t.Fatalf("no-cache beats env: %v %v", st, err)
	}
}

// TestCacheFlags: the shared CLI flags reach Resolve once parsed.
func TestCacheFlags(t *testing.T) {
	t.Setenv("EVAL_CACHE_DIR", "")
	dir := t.TempDir()
	for _, c := range []struct {
		args []string
		want string
	}{
		{nil, ""},
		{[]string{"-cache-dir", dir}, dir},
		{[]string{"-cache-dir", dir, "-no-cache"}, ""},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		open := CacheFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatal(err)
		}
		st, err := open(Options{})
		if err != nil || st.Dir() != c.want {
			t.Fatalf("%v: store dir %q (err %v), want %q", c.args, st.Dir(), err, c.want)
		}
		st.Close()
	}
}

// TestOpenReadsOnlyUncoveredTails: Open reads no byte of a segment its
// saved index covers, and only the tail of one that grew after the save.
// Records appended behind the index (as a crashed writer leaves them)
// are found at the offsets a full-scan rebuild gives them.
func TestOpenReadsOnlyUncoveredTails(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Store, *obs.Registry) {
		t.Helper()
		reg := obs.NewRegistry()
		st, err := Open(dir, Options{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return st, reg
	}
	st, _ := open()
	var keys []string
	for i := 0; i < 12; i++ {
		key, _ := Key(testKind, fmt.Sprintf("covered-%d", i), 1)
		keys = append(keys, key)
		get(t, st, key, i)
	}
	st.Close()

	st, reg := open()
	if n := counter(reg, "artifact.cache.scan_bytes"); n != 0 {
		t.Fatalf("opening a fully covered store read %d pack bytes", n)
	}
	if p := get(t, st, keys[3], 99); p.Value != 3 {
		t.Fatalf("covered record lost: %+v", p)
	}
	st.Close()

	// Append records behind the saved index, straight to their segments.
	var appended int64
	for i := 12; i < 17; i++ {
		key, _ := Key(testKind, fmt.Sprintf("tail-%d", i), 1)
		keys = append(keys, key)
		body, _ := json.Marshal(payload{Value: i, Blob: "tail"})
		rec, err := appendRecord(nil, testKind.Name, key, body)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(packPath(dir, shardOf(key)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(rec); err != nil {
			t.Fatal(err)
		}
		f.Close()
		appended += int64(len(rec))
	}

	locations := func(st *Store) map[string]idxEntry {
		st.mu.Lock()
		defer st.mu.Unlock()
		out := make(map[string]idxEntry, len(st.index))
		for fkey, e := range st.index {
			e.atime = 0
			out[fkey] = e
		}
		return out
	}
	st, reg = open()
	if n := counter(reg, "artifact.cache.scan_bytes"); n != appended {
		t.Fatalf("Open read %d pack bytes, want the %d appended behind the index", n, appended)
	}
	if n := counter(reg, "artifact.cache.index_rebuilds"); n != 0 {
		t.Fatalf("index_rebuilds = %d after appends behind an intact index", n)
	}
	tailScan := locations(st)
	for i, key := range keys {
		if p := get(t, st, key, 99); p.Value != i {
			t.Fatalf("entry %d lost or wrong after the tail scan: %+v", i, p)
		}
	}
	st.Close()

	if err := os.Remove(filepath.Join(dir, indexName)); err != nil {
		t.Fatal(err)
	}
	st, _ = open()
	defer st.Close()
	fullScan := locations(st)
	if len(tailScan) != len(keys) || len(fullScan) != len(keys) {
		t.Fatalf("tail scan indexes %d records, full scan %d, want %d", len(tailScan), len(fullScan), len(keys))
	}
	for fkey, e := range fullScan {
		if tailScan[fkey] != e {
			t.Errorf("%s: tail scan put it at %+v, full scan at %+v", fkey, tailScan[fkey], e)
		}
	}
}

// TestTailScanCountsNoGarbageForIndexedRecords: a saved index may hold
// entries for records past its covered lengths, because saveIndex reads
// the lengths before it snapshots the entries. Open's tail scan meets
// those records again at the offsets the index gives them; they are
// live, so no segment counts them as garbage.
func TestTailScanCountsNoGarbageForIndexedRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 12; i++ {
		key, _ := Key(testKind, fmt.Sprintf("indexed-%d", i), 1)
		keys = append(keys, key)
		get(t, st, key, i)
	}
	st.Close()
	path := filepath.Join(dir, indexName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	index, _, err := decodeIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, encodeIndex(index, [numShards]int64{}), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.garbage != ([numShards]int64{}) {
		t.Fatalf("tail scan counted garbage %v for records the index already held", st.garbage)
	}
	for i, key := range keys {
		if v := readBack(t, st, key); v != i {
			t.Fatalf("entry %d reads %d after the tail scan", i, v)
		}
	}
}

// TestDecRejectsLengthLies: a length prefix that announces more elements
// than the payload holds fails the decode instead of allocating or
// slicing past the end, however large it is.
func TestDecRejectsLengthLies(t *testing.T) {
	for _, n := range []uint64{17, 1 << 61, 1<<63 - 1, math.MaxUint64} {
		var e Enc
		e.Uvarint(n)
		e.F64(1)
		e.F64(2)
		if d := NewDec(e.B); d.F64s(nil) != nil || d.Err() == nil {
			t.Errorf("F64s accepted a prefix of %d over 2 values", n)
		}
		if d := NewDec(e.B); d.Bytes() != nil || d.Err() == nil {
			t.Errorf("Bytes accepted a prefix of %d over 16 bytes", n)
		}
	}
}
