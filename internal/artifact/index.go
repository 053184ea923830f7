package artifact

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// indexMagic opens the persistent index file.
var indexMagic = [4]byte{'E', 'V', 'I', '2'}

// indexName is the index file's name inside the store directory.
const indexName = "index.bin"

// idxEntry locates one live artifact inside the packfiles.
type idxEntry struct {
	kind  string
	shard int
	off   int64
	size  int64 // framed record length
	atime int64 // unix nanoseconds of last use, the LRU clock
}

// fkeyOf is the index map key: the kind-qualified hex entry key (two
// kinds may in principle collide on a key; qualifying keeps them apart).
func fkeyOf(kind, key string) string {
	return kind + "/" + key
}

// encodeIndex serializes the index:
//
//	magic[4] | uvarint schema | uvarint nShards, per-shard covered length |
//	uvarint nKinds, kind strings | uvarint nEntries, entries | crc32c[4]
//
// Each entry is (kind ref, raw key, shard, offset, size, atime). Entries
// are sorted by (kind, key) so identical stores serialize identically.
// The covered lengths record how much of each packfile the index
// describes: bytes beyond them are records appended after the last save,
// recovered by Open's tail scan.
func encodeIndex(index map[string]idxEntry, covered [numShards]int64) []byte {
	type flat struct {
		key string
		e   idxEntry
	}
	flats := make([]flat, 0, len(index))
	kindIdx := map[string]int{}
	var kinds []string
	for _, e := range index {
		if _, ok := kindIdx[e.kind]; !ok {
			kindIdx[e.kind] = 0
			kinds = append(kinds, e.kind)
		}
	}
	sort.Strings(kinds)
	for i, k := range kinds {
		kindIdx[k] = i
	}
	for fkey, e := range index {
		flats = append(flats, flat{key: fkey[len(e.kind)+1:], e: e})
	}
	sort.Slice(flats, func(i, j int) bool {
		if flats[i].e.kind != flats[j].e.kind {
			return flats[i].e.kind < flats[j].e.kind
		}
		return flats[i].key < flats[j].key
	})

	var e Enc
	e.B = append(e.B, indexMagic[:]...)
	e.Uvarint(SchemaVersion)
	e.Uvarint(numShards)
	for _, c := range covered {
		e.Uvarint(uint64(c))
	}
	e.Uvarint(uint64(len(kinds)))
	for _, k := range kinds {
		e.String(k)
	}
	e.Uvarint(uint64(len(flats)))
	for _, f := range flats {
		raw, err := hex.DecodeString(f.key)
		if err != nil || len(raw) != rawKeyLen {
			continue // unrepresentable key; drop rather than corrupt the file
		}
		e.Uvarint(uint64(kindIdx[f.e.kind]))
		e.B = append(e.B, raw...)
		e.Uvarint(uint64(f.e.shard))
		e.Uvarint(uint64(f.e.off))
		e.Uvarint(uint64(f.e.size))
		e.Uvarint(uint64(f.e.atime))
	}
	sum := crc32.Checksum(e.B, castagnoli)
	e.B = binary.LittleEndian.AppendUint32(e.B, sum)
	return e.B
}

var errBadIndex = errors.New("artifact: corrupt index file")

// minIndexEntry is the fewest bytes one encoded index entry takes: a
// one-byte kind ref, the raw key, and four one-byte varints.
const minIndexEntry = 1 + rawKeyLen + 4

// fileOffset returns v as a packfile offset or length, false when it does
// not fit an int64.
func fileOffset(v uint64) (int64, bool) {
	return int64(v), v <= math.MaxInt64
}

// decodeIndex parses an index file. Any damage — bad magic, wrong
// schema, short body, checksum mismatch, a count past the bytes left, or
// an offset, size or covered length that is negative, zero-sized or
// overflows — returns an error and the caller falls back to a full
// packfile scan.
func decodeIndex(blob []byte) (map[string]idxEntry, [numShards]int64, error) {
	var covered [numShards]int64
	if len(blob) < len(indexMagic)+4 {
		return nil, covered, errBadIndex
	}
	body, tail := blob[:len(blob)-4], blob[len(blob)-4:]
	if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(tail) {
		return nil, covered, errBadIndex
	}
	if string(body[:4]) != string(indexMagic[:]) {
		return nil, covered, errBadIndex
	}
	d := NewDec(body[4:])
	if d.Uvarint() != SchemaVersion {
		return nil, covered, errBadIndex
	}
	if d.Uvarint() != numShards {
		return nil, covered, errBadIndex
	}
	for i := range covered {
		c, ok := fileOffset(d.Uvarint())
		if !ok {
			return nil, covered, errBadIndex
		}
		covered[i] = c
	}
	nKinds := d.Uvarint()
	if d.Err() != nil || nKinds > 1<<16 || nKinds > uint64(d.Remaining()) {
		return nil, covered, errBadIndex
	}
	kinds := make([]string, nKinds)
	for i := range kinds {
		kinds[i] = d.String()
	}
	n := d.Uvarint()
	if d.Err() != nil || n > uint64(d.Remaining())/minIndexEntry {
		return nil, covered, errBadIndex
	}
	index := make(map[string]idxEntry, n)
	for i := uint64(0); i < n; i++ {
		ki := d.Uvarint()
		var raw [rawKeyLen]byte
		for b := range raw {
			raw[b] = d.U8()
		}
		sh := d.Uvarint()
		off, offOK := fileOffset(d.Uvarint())
		size, sizeOK := fileOffset(d.Uvarint())
		at := d.Uvarint()
		if d.Err() != nil || ki >= nKinds || sh >= numShards ||
			!offOK || !sizeOK || size == 0 || off > math.MaxInt64-size {
			return nil, covered, errBadIndex
		}
		key := hex.EncodeToString(raw[:])
		index[fkeyOf(kinds[ki], key)] = idxEntry{
			kind: kinds[ki], shard: int(sh), off: off, size: size, atime: int64(at),
		}
	}
	if d.Err() != nil {
		return nil, covered, errBadIndex
	}
	return index, covered, nil
}

// scanShard indexes the records of shard si's packfile between offset
// start and end, the file's length, reading only those bytes (a later
// record of the same key supersedes an earlier one, matching append
// order). It returns the offset of the first invalid byte — the
// segment's valid length — the bytes of superseded records seen during
// the scan, and how many bytes it read.
func scanShard(dir string, si int, start, end int64, index map[string]idxEntry, atime int64) (valid, garbage, read int64) {
	if end <= start {
		return start, 0, 0
	}
	f, err := os.Open(packPath(dir, si))
	if err != nil {
		return start, 0, 0
	}
	defer f.Close()
	blob := make([]byte, end-start)
	n, _ := f.ReadAt(blob, start)
	blob = blob[:n]
	off := int64(0)
	for off < int64(len(blob)) {
		rec, ok := parseRecord(blob[off:])
		if !ok {
			break
		}
		fkey := fkeyOf(rec.kind, rec.key)
		// The saved index may already hold this very record: its entry
		// was snapshotted after the covered lengths were read.
		if old, exists := index[fkey]; exists && old.shard == si && old.off != start+off {
			garbage += old.size
		}
		index[fkey] = idxEntry{kind: rec.kind, shard: si, off: start + off, size: rec.size, atime: atime}
		off += rec.size
	}
	return start + off, garbage, int64(n)
}

// loadIndex restores the store's index at Open: the saved index file
// when intact, a full packfile scan otherwise, plus a scan of every
// segment's tail for records appended after the last save. Only the
// bytes past a segment's covered length are read, so a segment the
// index covers entirely is not read at all. Segments shorter than their
// covered length (externally truncated or replaced) are rescanned from
// zero — the index/segment mismatch rebuild. Returns the index, the
// per-shard valid lengths, per-shard garbage byte counts (superseded
// records discovered while scanning), the packfile bytes read, and
// whether the saved index had to be discarded.
func loadIndex(dir string, atime int64) (index map[string]idxEntry, sizes, garbage [numShards]int64, scanned int64, rebuilt bool) {
	index = map[string]idxEntry{}
	var covered [numShards]int64
	blob, err := os.ReadFile(filepath.Join(dir, indexName))
	if err == nil {
		if idx, cov, derr := decodeIndex(blob); derr == nil {
			index, covered = idx, cov
		} else {
			rebuilt = true
		}
	}
	for si := 0; si < numShards; si++ {
		info, err := os.Stat(packPath(dir, si))
		fileSize := int64(0)
		if err == nil {
			fileSize = info.Size()
		}
		if fileSize < covered[si] {
			// The segment is shorter than the index believes: it was
			// truncated or swapped behind our back. Drop every entry that
			// points into it and rebuild the shard from a full scan.
			for fkey, e := range index {
				if e.shard == si {
					delete(index, fkey)
				}
			}
			covered[si] = 0
			rebuilt = true
		}
		valid, g, n := scanShard(dir, si, covered[si], fileSize, index, atime)
		sizes[si] = valid
		garbage[si] += g
		scanned += n
		if valid < fileSize {
			// Truncated-tail recovery: drop the partial record so future
			// appends land after valid bytes only.
			_ = os.Truncate(packPath(dir, si), valid)
		}
	}
	// Entries must lie inside their segment; anything else is stale.
	for fkey, e := range index {
		if e.off+e.size > sizes[e.shard] {
			delete(index, fkey)
			rebuilt = true
		}
	}
	return index, sizes, garbage, scanned, rebuilt
}
