package artifact

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
)

// hugePayloadRecord is a record header whose payload length, 2^63-1,
// overflows any offset it is added to, followed by a few bytes that are
// not the payload it announces.
func hugePayloadRecord() []byte {
	b := append([]byte(nil), recordMagic[:]...)
	b = binary.AppendUvarint(b, uint64(len(testKind.Name)))
	b = append(b, testKind.Name...)
	b = append(b, make([]byte, rawKeyLen)...)
	b = binary.AppendUvarint(b, math.MaxInt64)
	return append(b, bytes.Repeat([]byte{0xA5}, 40)...)
}

// TestParseRecordHugePayloadLength: a payload length near 2^63 is
// rejected as a truncated record, not sliced, both when parsed directly
// and when Open's tail scan meets it in a packfile.
func TestParseRecordHugePayloadLength(t *testing.T) {
	data := hugePayloadRecord()
	if _, ok := parseRecord(data); ok {
		t.Fatal("parseRecord accepted a payload length past the data")
	}
	dir := t.TempDir()
	if err := os.WriteFile(packPath(dir, 0), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if info, err := os.Stat(packPath(dir, 0)); err != nil || info.Size() != 0 {
		t.Fatalf("the bogus record was not dropped as a truncated tail: %v, %v", info, err)
	}
}

// storeWithOneRecord writes one entry through a store in dir and closes
// it, returning the entry's key and its saved index.
func storeWithOneRecord(t testing.TB, dir string) (string, map[string]idxEntry, [numShards]int64) {
	t.Helper()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key, _ := Key(testKind, "hostile-index", 1)
	if err := st.GetOrBuild(testKind, key, func([]byte) error { return nil }, buildPayload(7)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	blob, err := os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		t.Fatal(err)
	}
	index, covered, err := decodeIndex(blob)
	if err != nil {
		t.Fatal(err)
	}
	return key, index, covered
}

// withEntrySize returns index with every entry's size set to size.
func withEntrySize(index map[string]idxEntry, size int64) map[string]idxEntry {
	out := make(map[string]idxEntry, len(index))
	for fkey, e := range index {
		e.size = size
		out[fkey] = e
	}
	return out
}

// TestIndexNegativeEntrySize: a CRC-valid index whose entry size decodes
// to -5 is a corrupt index: Open rescans the packfiles, and the entry is
// served from its record instead of panicking the first Get.
func TestIndexNegativeEntrySize(t *testing.T) {
	dir := t.TempDir()
	key, index, covered := storeWithOneRecord(t, dir)
	blob := encodeIndex(withEntrySize(index, -5), covered)
	if err := os.WriteFile(filepath.Join(dir, indexName), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	st, err := Open(dir, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var p payload
	if !st.Get(testKind, key, p.decode) || p.Value != 7 {
		t.Fatalf("entry not served after the rescan: %+v", p)
	}
	if got := counter(reg, "artifact.cache.index_rebuilds"); got != 1 {
		t.Errorf("index_rebuilds = %d, want 1", got)
	}
}

// TestDecodeIndexRejectsHostileLengths: an offset, size or covered length
// that is negative, zero-sized or overflows, and an entry or kind count
// the bytes left cannot hold, each make the index corrupt — before
// anything is allocated for them.
func TestDecodeIndexRejectsHostileLengths(t *testing.T) {
	_, index, covered := storeWithOneRecord(t, t.TempDir())
	if _, _, err := decodeIndex(encodeIndex(index, covered)); err != nil {
		t.Fatalf("the real index is rejected: %v", err)
	}
	negCovered := covered
	negCovered[3] = -1
	withOff := func(off int64) map[string]idxEntry {
		out := make(map[string]idxEntry, len(index))
		for fkey, e := range index {
			e.off = off
			out[fkey] = e
		}
		return out
	}
	for name, blob := range map[string][]byte{
		"negative covered": encodeIndex(index, negCovered),
		"negative size":    encodeIndex(withEntrySize(index, -5), covered),
		"zero size":        encodeIndex(withEntrySize(index, 0), covered),
		"negative offset":  encodeIndex(withOff(-1), covered),
		"overflowing end":  encodeIndex(withOff(math.MaxInt64-2), covered),
		"entry count":      countLie(2, 1<<28),
		"kind count":       countLie(1<<16, 0),
	} {
		if _, _, err := decodeIndex(blob); err == nil {
			t.Errorf("%s: decodeIndex accepted the index", name)
		}
	}
}

// countLie is a CRC-valid index announcing nKinds kinds and n entries
// (after nKinds one-byte kind names when n is nonzero) with no room for
// them.
func countLie(nKinds, n uint64) []byte {
	var e Enc
	e.B = append(e.B, indexMagic[:]...)
	e.Uvarint(SchemaVersion)
	e.Uvarint(numShards)
	for i := 0; i < numShards; i++ {
		e.Uvarint(0)
	}
	e.Uvarint(nKinds)
	if n > 0 {
		for i := uint64(0); i < nKinds; i++ {
			e.String("k")
		}
		e.Uvarint(n)
	}
	return resum(e.B)
}

// resum appends the CRC-32C of body, as encodeIndex closes an index.
func resum(body []byte) []byte {
	return binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
}

// packRecords returns a store's packfile bytes and its index file after
// writing a few entries of two kinds.
func packRecords(f *testing.F) (packs [][]byte, index []byte) {
	dir := f.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		kind := testKind
		if i%2 == 1 {
			kind = Kind{Name: "other", Version: 2}
		}
		key, _ := Key(kind, i, 1)
		st.Put(kind, key, bytes.Repeat([]byte{byte(i)}, 3*i))
	}
	st.Close()
	for si := 0; si < numShards; si++ {
		if b, err := os.ReadFile(packPath(dir, si)); err == nil && len(b) > 0 {
			packs = append(packs, b)
		}
	}
	index, err = os.ReadFile(filepath.Join(dir, indexName))
	if err != nil {
		f.Fatal(err)
	}
	return packs, index
}

// FuzzParseRecord: the pack record parser, which Open's tail scan runs on
// whatever bytes a packfile holds, never panics; a record it accepts is
// no longer than the data and re-encodes to a record that parses to the
// same kind, key and payload. Seeds: real packfiles, truncations of a
// record, a flipped CRC, and a payload length near 2^63.
func FuzzParseRecord(f *testing.F) {
	packs, _ := packRecords(f)
	for _, p := range packs {
		f.Add(p)
	}
	key, _ := Key(testKind, "seed", 1)
	rec, err := appendRecord(nil, testKind.Name, key, []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 3, 4, 5, 9, 41, 42, len(rec) - 4, len(rec) - 1} {
		f.Add(rec[:n])
	}
	flipped := append([]byte(nil), rec...)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	f.Add(hugePayloadRecord())
	f.Fuzz(func(t *testing.T, data []byte) {
		r, ok := parseRecord(data)
		if !ok {
			return
		}
		if r.size <= 0 || r.size > int64(len(data)) {
			t.Fatalf("record size %d outside the %d bytes parsed", r.size, len(data))
		}
		again, err := appendRecord(nil, r.kind, r.key, r.payload)
		if err != nil {
			t.Fatalf("an accepted record does not re-encode: %v", err)
		}
		r2, ok := parseRecord(again)
		if !ok || r2.kind != r.kind || r2.key != r.key || !bytes.Equal(r2.payload, r.payload) ||
			r2.size != int64(len(again)) {
			t.Fatalf("re-encoded record parses to %+v, want %+v", r2, r)
		}
	})
}

// FuzzDecodeIndex: the index decoder never panics, and an index it
// accepts has covered lengths >= 0 and entries with offset >= 0, size >
// 0 and an end that does not overflow, and re-encodes to an index that
// decodes to the same entries and covered lengths. With resum set the
// input's last four bytes are replaced by its body's CRC, so the fuzzer
// reaches the body's parser. Seeds: a real index, its truncations, a
// flipped CRC, an entry of size -5, a negative covered length, and an
// entry count no body can hold.
func FuzzDecodeIndex(f *testing.F) {
	_, real := packRecords(f)
	f.Add(real, false)
	for _, n := range []int{0, 4, 8, 20, len(real) / 2, len(real) - 4, len(real) - 1} {
		f.Add(real[:n], false)
		f.Add(real[:n], true)
	}
	flipped := append([]byte(nil), real...)
	flipped[len(flipped)-2] ^= 0x10
	f.Add(flipped, false)
	index, covered, err := decodeIndex(real)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(encodeIndex(withEntrySize(index, -5), covered), false)
	negCovered := covered
	negCovered[0] = -1
	f.Add(encodeIndex(index, negCovered), false)
	f.Add(countLie(2, 1<<28), false)
	f.Fuzz(func(t *testing.T, blob []byte, fix bool) {
		if fix && len(blob) >= 4 {
			blob = resum(append([]byte(nil), blob[:len(blob)-4]...))
		}
		index, covered, err := decodeIndex(blob)
		if err != nil {
			return
		}
		for si, c := range covered {
			if c < 0 {
				t.Fatalf("shard %d: covered length %d", si, c)
			}
		}
		for fkey, e := range index {
			if e.off < 0 || e.size <= 0 || e.off > math.MaxInt64-e.size || e.shard < 0 || e.shard >= numShards {
				t.Fatalf("%s: accepted entry %+v", fkey, e)
			}
		}
		index2, covered2, err := decodeIndex(encodeIndex(index, covered))
		if err != nil {
			t.Fatalf("re-encoded index rejected: %v", err)
		}
		if covered2 != covered || !reflect.DeepEqual(index2, index) {
			t.Fatalf("re-encoded index decodes to %v %v, want %v %v", index2, covered2, index, covered)
		}
	})
}

// decReadZero runs the Dec read that op picks and reports whether it
// returned its zero value.
func decReadZero(d *Dec, op byte) bool {
	switch op % 9 {
	case 0:
		return d.Tag() == 0
	case 1:
		return d.Uvarint() == 0
	case 2:
		return d.Varint() == 0
	case 3:
		return !d.Bool()
	case 4:
		return d.U8() == 0
	case 5:
		return math.Float64bits(d.F64()) == 0
	case 6:
		return d.F64s(nil) == nil
	case 7:
		return d.String() == ""
	default:
		return d.Bytes() == nil
	}
}

// fuzzSource hands out a fuzz input's bytes in order, then zeros.
type fuzzSource []byte

func (s *fuzzSource) byte() byte {
	if len(*s) == 0 {
		return 0
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *fuzzSource) u64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.byte())
	}
	return v
}

// FuzzCodec: Dec reads hostile bytes through every read method, in an
// order ops picks, without panicking; the read that fails and every read
// after it return zero values, the first failure sticks, and Remaining
// never goes negative. Then ops picks a sequence of Enc writes (Tag,
// Uvarint, Varint, Bool, U8, F64, F64s, String) whose values come from
// data, and a Dec reads each back bit for bit with Done returning nil.
// Seeds: an empty input, a payload Enc wrote read in its own order, a
// length prefix near 2^64, an overlong varint, a foreign tag, and a
// truncated float.
func FuzzCodec(f *testing.F) {
	var e Enc
	e.Tag(3)
	e.Uvarint(300)
	e.Varint(-7)
	e.Bool(true)
	e.U8(9)
	e.F64(math.Pi)
	e.F64s([]float64{1, math.Inf(-1)})
	e.String("ab")
	e.String("cd")
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}, e.B)
	var lie Enc
	lie.Uvarint(math.MaxUint64 - 1)
	lie.F64(1)
	f.Add([]byte{6, 7, 8, 1}, lie.B)
	f.Add([]byte{1, 2, 4}, append(bytes.Repeat([]byte{0xff}, 10), 1))
	f.Add([]byte{0, 0}, []byte(`{"value":1}`))
	f.Add([]byte{5, 4}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, ops, data []byte) {
		d := NewDec(data)
		var first error
		for i, op := range ops {
			zero := decReadZero(d, op)
			if d.Remaining() < 0 {
				t.Fatalf("read %d (op %d): Remaining %d", i, op%9, d.Remaining())
			}
			if first != nil && d.Err() != first {
				t.Fatalf("read %d (op %d): error %v replaced the first failure %v", i, op%9, d.Err(), first)
			}
			if d.Err() != nil {
				first = d.Err()
				if !zero {
					t.Fatalf("read %d (op %d) on a failed decoder returned a nonzero value", i, op%9)
				}
			}
		}
		if first != nil && d.Done() == nil {
			t.Fatal("Done is nil after a failed read")
		}

		src := fuzzSource(data)
		var e Enc
		var checks []func(*Dec) bool
		for _, op := range ops {
			switch op % 8 {
			case 0:
				v := int(int64(src.u64()))
				e.Tag(v)
				checks = append(checks, func(d *Dec) bool { return d.Tag() == v })
			case 1:
				v := src.u64()
				e.Uvarint(v)
				checks = append(checks, func(d *Dec) bool { return d.Uvarint() == v })
			case 2:
				v := int64(src.u64())
				e.Varint(v)
				checks = append(checks, func(d *Dec) bool { return d.Varint() == v })
			case 3:
				v := src.byte()&1 == 1
				e.Bool(v)
				checks = append(checks, func(d *Dec) bool { return d.Bool() == v })
			case 4:
				v := src.byte()
				e.U8(v)
				checks = append(checks, func(d *Dec) bool { return d.U8() == v })
			case 5:
				v := src.u64()
				e.F64(math.Float64frombits(v))
				checks = append(checks, func(d *Dec) bool { return math.Float64bits(d.F64()) == v })
			case 6:
				v := make([]uint64, src.byte()%8)
				col := make([]float64, len(v))
				for i := range v {
					v[i] = src.u64()
					col[i] = math.Float64frombits(v[i])
				}
				e.F64s(col)
				checks = append(checks, func(d *Dec) bool {
					got := d.F64s(nil)
					if len(got) != len(v) {
						return false
					}
					for i, g := range got {
						if math.Float64bits(g) != v[i] {
							return false
						}
					}
					return true
				})
			case 7:
				b := make([]byte, src.byte()%16)
				for i := range b {
					b[i] = src.byte()
				}
				v := string(b)
				e.String(v)
				checks = append(checks, func(d *Dec) bool { return d.String() == v })
			}
		}
		d = NewDec(e.B)
		for i, check := range checks {
			if !check(d) {
				t.Fatalf("value %d (op %d) does not round-trip: %v", i, ops[i]%8, d.Err())
			}
		}
		if err := d.Done(); err != nil {
			t.Fatalf("round trip: %v", err)
		}
	})
}
