package artifact

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// readBack fetches key with Get (never building) and reports the decoded
// value, or -1 on a miss.
func readBack(t *testing.T, st *Store, key string) int {
	t.Helper()
	var p payload
	if !st.Get(testKind, key, p.decode) {
		return -1
	}
	return p.Value
}

// put writes one toy payload under key.
func put(t *testing.T, st *Store, key string, v int) {
	t.Helper()
	b, err := buildPayload(v)()
	if err != nil {
		t.Fatal(err)
	}
	st.Put(testKind, key, b)
}

// durable asserts key is visible to a brand-new store on dir — the
// packed-layout equivalent of statting a v1 entry file.
func durable(t *testing.T, dir, key string) int {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return readBack(t, st, key)
}

// TestReadYourWrites: a store must observe its own writes before any
// settle, and a second store on the same directory sees them after Flush.
func TestReadYourWrites(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	key, _ := Key(testKind, "ryw", 1)
	put(t, st, key, 11)
	if v := readBack(t, st, key); v != 11 {
		t.Fatalf("own unflushed write invisible: got %d", v)
	}

	st.Flush()
	other, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Close)
	if v := readBack(t, other, key); v != 11 {
		t.Fatalf("flushed write invisible to second store: got %d", v)
	}
}

// TestLastWriteWins: repeated writes of one key must resolve to the final
// value both before and after Flush.
func TestLastWriteWins(t *testing.T) {
	st, _ := openTestStore(t)
	key, _ := Key(testKind, "lww", 1)
	for v := 0; v < 20; v++ {
		put(t, st, key, v)
	}
	if v := readBack(t, st, key); v != 19 {
		t.Fatalf("pending read got %d, want 19", v)
	}
	st.Flush()
	if v := readBack(t, st, key); v != 19 {
		t.Fatalf("post-flush read got %d, want 19", v)
	}
}

// TestFlushCloseIdempotentNilSafe: Flush and Close must be callable any
// number of times, in any order, on live, closed, and nil stores.
func TestFlushCloseIdempotentNilSafe(t *testing.T) {
	var nilStore *Store
	nilStore.Flush()
	nilStore.Close()

	st, _ := openTestStore(t)
	key, _ := Key(testKind, "idem", 1)
	put(t, st, key, 3)
	st.Flush()
	st.Flush()
	st.Close()
	st.Close()
	st.Flush()
	if v := readBack(t, st, key); v != 3 {
		t.Fatalf("entry lost across flush/close churn: got %d", v)
	}
}

// TestWriteAfterCloseIsSynchronous: a closed store keeps working — a
// write after Close is durable when it returns, like every write.
func TestWriteAfterCloseIsSynchronous(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	key, _ := Key(testKind, "postclose", 1)
	put(t, st, key, 8)
	if v := readBack(t, st, key); v != 8 {
		t.Fatalf("post-close write unreadable: got %d", v)
	}
	if v := durable(t, dir, key); v != 8 {
		t.Fatalf("post-close write not durable: got %d", v)
	}
}

// TestCloseFlushesQueue: every entry written before Close is on disk when
// Close returns, and a fresh store on the directory reads them all.
func TestCloseFlushesQueue(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; i < 50; i++ {
		key, _ := Key(testKind, fmt.Sprintf("close-%d", i), 1)
		keys = append(keys, key)
		put(t, st, key, i)
	}
	st.Close()
	fresh, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fresh.Close)
	for i, key := range keys {
		if v := readBack(t, fresh, key); v != i {
			t.Fatalf("entry %d missing after Close: got %d", i, v)
		}
	}
}

// TestWriteDurableOnReturn: a write is on disk when Put or GetOrBuild
// returns. A second store opened on the directory while the writer is
// still open — no Flush, no Close, as after a killed run — reads every
// value the writer stored.
func TestWriteDurableOnReturn(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	var keys []string
	for i := 0; i < 20; i++ {
		key, _ := Key(testKind, fmt.Sprintf("durable-%d", i), 1)
		keys = append(keys, key)
		if i%2 == 0 {
			put(t, st, key, i)
		} else {
			get(t, st, key, i)
		}
	}
	other, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	for i, key := range keys {
		if v := readBack(t, other, key); v != i {
			t.Fatalf("entry %d not on disk after its write returned: got %d", i, v)
		}
	}
}

// TestCompactionKeepsConcurrentAppends: writers rewrite their keys while
// another goroutine forces settles, so compactions rewrite segments that
// appends are landing in. No record an index entry points at may be
// dropped by a rewrite: afterwards every key reads back its last value,
// in this store and a fresh one, and nothing was counted corrupt. Run
// under -race.
func TestCompactionKeepsConcurrentAppends(t *testing.T) {
	const writers, keysPer, rounds = 4, 8, 60
	dir := t.TempDir()
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	blob := strings.Repeat("x", 8<<10)
	keyOf := func(w, k int) string {
		key, _ := Key(testKind, fmt.Sprintf("compact-%d-%d", w, k), 1)
		return key
	}

	stop := make(chan struct{})
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		for {
			select {
			case <-stop:
				return
			default:
				st.Flush()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := 0; k < keysPer; k++ {
					b, _ := json.Marshal(payload{Value: r, Blob: blob})
					st.Put(testKind, keyOf(w, k), b)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-flushed

	readAll := func(st *Store, what string) {
		for w := 0; w < writers; w++ {
			for k := 0; k < keysPer; k++ {
				if v := readBack(t, st, keyOf(w, k)); v != rounds-1 {
					t.Errorf("%s: writer %d key %d reads %d, want %d", what, w, k, v, rounds-1)
				}
			}
		}
	}
	readAll(st, "writing store")
	st.Close()
	if c := counter(reg, "artifact.cache.corrupt"); c != 0 {
		t.Errorf("corrupt = %d, want 0", c)
	}
	if c := counter(reg, "artifact.cache.compactions"); c == 0 {
		t.Error("no compaction ran; the test raced nothing")
	}
	fresh, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	readAll(fresh, "fresh store")
}

// TestDiskBytesAccountingUnderConcurrency: the writers' routine settles
// and Flush's forced ones share the disk-byte accounting; hammering
// writes, flushes, and reads concurrently (run under -race) must leave the
// artifact.cache.disk_bytes gauge exactly equal to a fresh walk of the
// directory, and the store under its byte cap.
func TestDiskBytesAccountingUnderConcurrency(t *testing.T) {
	reg := obs.NewRegistry()
	const maxBytes = 4000
	st, err := open(t.TempDir(), Options{Obs: reg}, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				key, _ := Key(testKind, fmt.Sprintf("acct-%d-%d", g, i%8), 1)
				put(t, st, key, i)
				if i%5 == 0 {
					st.Flush() // force settles to race the writers' own
				}
				readBack(t, st, key)
			}
		}(g)
	}
	wg.Wait()
	st.Flush()

	var walked int64
	filepath.WalkDir(st.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, _ := d.Info()
		walked += info.Size()
		return nil
	})
	gauge := int64(reg.Gauge("artifact.cache.disk_bytes").Value())
	if gauge != walked {
		t.Fatalf("disk_bytes gauge %d != on-disk total %d", gauge, walked)
	}
	if walked > maxBytes {
		t.Fatalf("store holds %d bytes, cap %d", walked, maxBytes)
	}
}

// TestCrashDebrisRecovery: leftover temp files from a crashed settle (a
// failed index save or abandoned compaction) must neither corrupt reads
// nor survive a settle once stale.
func TestCrashDebrisRecovery(t *testing.T) {
	dir := t.TempDir()
	old := time.Now().Add(-2 * time.Minute)
	// Root-level debris from a crashed v2 settle.
	rootDebris := []string{
		filepath.Join(dir, ".index.tmp-crashed"),
		filepath.Join(dir, ".pack-compact-crashed"),
	}
	for _, p := range rootDebris {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	key, _ := Key(testKind, "debris", 1)
	put(t, st, key, 21)
	st.Flush()

	// The store works fine around the debris.
	if v := readBack(t, st, key); v != 21 {
		t.Fatalf("debris broke a clean read: got %d", v)
	}
	if c := counter(reg, "artifact.cache.corrupt"); c != 0 {
		t.Fatalf("debris counted as corruption: %d", c)
	}
	// The settle cleared the stale debris.
	for _, p := range rootDebris {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("stale debris %s survived the settle: %v", p, err)
		}
	}
}

// dirState is one file's bytes and modification time.
type dirState struct {
	data  string
	mtime time.Time
}

// snapshot reads every file of dir.
func snapshot(t *testing.T, dir string) map[string]dirState {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]dirState, len(des))
	for _, de := range des {
		info, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(filepath.Join(dir, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[de.Name()] = dirState{data: string(data), mtime: info.ModTime()}
	}
	return out
}

// TestReadOnlyCloseLeavesDirectory: a store that only reads a directory
// leaves it untouched when it closes. A writer rewrites 16 keys of one
// segment six times, saving an index after the first round only, so a
// second store's tail scan finds five rounds of superseded records,
// enough garbage to compact the segment. That store reads all 16 keys and
// closes: index.bin and every packfile keep their bytes and mtimes. The
// writer then writes two more rounds and closes, and a fresh store reads
// every key's last value with nothing counted corrupt. Had the reader
// compacted, the writer would have kept appending to the renamed-away
// segment and its own closing compaction would have dropped the records
// past the end of the reader's smaller file.
func TestReadOnlyCloseLeavesDirectory(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for i := 0; len(keys) < 16; i++ {
		key, _ := Key(testKind, fmt.Sprintf("segment-%d", i), 1)
		if len(keys) == 0 || shardOf(key) == shardOf(keys[0]) {
			keys = append(keys, key)
		}
	}
	blob := strings.Repeat("x", 4<<10) // 16 keys × 5 rounds of garbage pass compactMinGarbage
	round := func(r int) {
		for i, key := range keys {
			b, err := json.Marshal(payload{Value: 100*r + i, Blob: blob})
			if err != nil {
				t.Fatal(err)
			}
			writer.Put(testKind, key, b)
		}
	}
	round(0)
	writer.Flush()
	for r := 1; r < 6; r++ {
		round(r)
	}

	before := snapshot(t, dir)
	if _, ok := before[indexName]; !ok {
		t.Fatal("the writer saved no index")
	}
	reader, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g := reader.garbage[shardOf(keys[0])]; g < compactMinGarbage {
		t.Fatalf("the reader's tail scan found %d bytes of garbage, want at least %d", g, compactMinGarbage)
	}
	for i, key := range keys {
		if v := readBack(t, reader, key); v != 500+i {
			t.Fatalf("reader: key %d reads %d, want %d", i, v, 500+i)
		}
	}
	reader.Close()
	after := snapshot(t, dir)
	for name, b := range before {
		a, ok := after[name]
		switch {
		case !ok:
			t.Errorf("%s: removed by a read-only store", name)
		case a.data != b.data:
			t.Errorf("%s: rewritten by a read-only store (%d → %d bytes)", name, len(b.data), len(a.data))
		case !a.mtime.Equal(b.mtime):
			t.Errorf("%s: mtime moved from %v to %v", name, b.mtime, a.mtime)
		}
	}
	for name := range after {
		if _, ok := before[name]; !ok {
			t.Errorf("%s: created by a read-only store", name)
		}
	}

	round(6)
	round(7)
	writer.Close()
	reg := obs.NewRegistry()
	fresh, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	lost := 0
	for i, key := range keys {
		if v := readBack(t, fresh, key); v != 700+i {
			lost++
			t.Errorf("fresh store: key %d reads %d, want %d", i, v, 700+i)
		}
	}
	if lost > 0 {
		t.Errorf("lost %d of %d keys", lost, len(keys))
	}
	if n := counter(reg, "artifact.cache.corrupt"); n != 0 {
		t.Errorf("artifact.cache.corrupt = %d, want 0", n)
	}
}
