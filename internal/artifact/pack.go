package artifact

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// numShards is the packfile count. Writes stripe by the key's leading
// byte, so a compaction rewrites — and blocks appends to — 1/numShards
// of the store at a time.
const numShards = 8

// recordMagic opens every pack record; a scan that does not find it at an
// expected offset has hit a truncated tail or foreign bytes.
var recordMagic = [4]byte{'E', 'V', 'R', '2'}

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64) —
// the per-record checksum. A packfile record only needs corruption
// detection, not collision resistance, and CRC-32C is an order of
// magnitude cheaper than SHA-256 on the warm path.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// rawKeyLen is the decoded length of the hex entry keys (SHA-256).
const rawKeyLen = 32

// shardOf maps a hex key to its packfile stripe.
func shardOf(key string) int {
	if len(key) == 0 {
		return 0
	}
	const hexDigits = "0123456789abcdef"
	for i := 0; i < 16; i++ {
		if key[0] == hexDigits[i] {
			return i % numShards
		}
	}
	return int(key[0]) % numShards
}

// appendRecord frames one (kind, key, payload) record onto buf:
//
//	magic[4] | uvarint kindLen, kind | rawKey[32] | uvarint payloadLen, payload | crc32c[4]
//
// The CRC covers everything before it. Keys are stored decoded (32 raw
// bytes, not 64 hex digits).
func appendRecord(buf []byte, kind string, key string, payload []byte) ([]byte, error) {
	raw, err := hex.DecodeString(key)
	if err != nil || len(raw) != rawKeyLen {
		return buf, fmt.Errorf("artifact: key %q is not sha256 hex", key)
	}
	start := len(buf)
	buf = append(buf, recordMagic[:]...)
	buf = binary.AppendUvarint(buf, uint64(len(kind)))
	buf = append(buf, kind...)
	buf = append(buf, raw...)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := crc32.Checksum(buf[start:], castagnoli)
	buf = binary.LittleEndian.AppendUint32(buf, sum)
	return buf, nil
}

// record is one parsed pack record.
type record struct {
	kind    string
	key     string // hex
	payload []byte // aliases the scanned buffer
	size    int64  // framed length including magic and crc
}

// parseRecord decodes the record at the head of data. A short buffer,
// bad magic, a length prefix past the bytes left, or checksum mismatch
// returns ok=false — at a segment tail that means "truncated here",
// mid-file it means corruption. Every length is bounded by the bytes
// left before it is added to an offset, so no prefix can overflow one.
func parseRecord(data []byte) (rec record, ok bool) {
	if len(data) < len(recordMagic) || string(data[:4]) != string(recordMagic[:]) {
		return rec, false
	}
	off := len(recordMagic)
	kindLen, n := binary.Uvarint(data[off:])
	if n <= 0 || kindLen > 256 {
		return rec, false
	}
	off += n
	if off+int(kindLen)+rawKeyLen > len(data) {
		return rec, false
	}
	kind := string(data[off : off+int(kindLen)])
	off += int(kindLen)
	rawKey := data[off : off+rawKeyLen]
	off += rawKeyLen
	payLen, n := binary.Uvarint(data[off:])
	if n <= 0 {
		return rec, false
	}
	off += n
	if left := uint64(len(data) - off); left < 4 || payLen > left-4 {
		return rec, false
	}
	payload := data[off : off+int(payLen)]
	off += int(payLen)
	want := binary.LittleEndian.Uint32(data[off:])
	if crc32.Checksum(data[:off], castagnoli) != want {
		return rec, false
	}
	return record{
		kind:    kind,
		key:     hex.EncodeToString(rawKey),
		payload: payload,
		size:    int64(off) + 4,
	}, true
}

// shard is one packfile stripe: its file path (set at Open), its append
// handle and size under the stripe lock, plus a read handle opened
// lazily. Reads go through pread (ReadAt), so they never take the stripe
// lock and never seek under a concurrent reader.
type shard struct {
	path string

	mu   sync.Mutex
	w    *os.File // append handle, opened on first write
	size int64    // current file size (logical end of valid records)

	rmu sync.Mutex
	r   *os.File // pread handle, opened on first read
	// retired holds superseded read handles (after compaction) until
	// Close: an in-flight pread may still be using one, and a handful of
	// idle descriptors per process is cheaper than racing it.
	retired []*os.File
}

// packPath returns shard si's packfile path.
func packPath(dir string, si int) string {
	return filepath.Join(dir, fmt.Sprintf("pack-%02d.bin", si))
}

// append writes blob at the shard's tail and returns its offset. Caller
// holds the stripe lock, which serializes appends, and composed blob with
// appendRecord. The file is opened O_APPEND so even a crashed half-append
// only ever damages the tail.
func (sh *shard) append(blob []byte) (off int64, err error) {
	if sh.w == nil {
		sh.w, err = os.OpenFile(sh.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return 0, err
		}
	}
	off = sh.size
	if _, err := sh.w.Write(blob); err != nil {
		// The tail may now hold a partial record; readers are offset-based
		// and unaffected, and the next Open's tail scan drops the debris.
		return 0, err
	}
	sh.size += int64(len(blob))
	return off, nil
}

// readAt preads length bytes at off into buf (grown as needed) and
// returns the filled slice.
func (sh *shard) readAt(buf []byte, off, length int64) ([]byte, error) {
	sh.rmu.Lock()
	if sh.r == nil {
		f, err := os.Open(sh.path)
		if err != nil {
			sh.rmu.Unlock()
			return nil, err
		}
		sh.r = f
	}
	f := sh.r
	sh.rmu.Unlock()
	if int64(cap(buf)) < length {
		buf = make([]byte, length)
	} else {
		buf = buf[:length]
	}
	if _, err := f.ReadAt(buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// swapReadHandle retires the current pread handle after a compaction
// renamed a fresh file into place: later reads reopen the new inode,
// while in-flight reads keep the old descriptor alive until Close.
func (sh *shard) swapReadHandle() {
	sh.rmu.Lock()
	if sh.r != nil {
		sh.retired = append(sh.retired, sh.r)
		sh.r = nil
	}
	sh.rmu.Unlock()
}

// closeHandles closes every descriptor the shard holds.
func (sh *shard) closeHandles() {
	sh.mu.Lock()
	if sh.w != nil {
		sh.w.Close()
		sh.w = nil
	}
	sh.mu.Unlock()
	sh.rmu.Lock()
	if sh.r != nil {
		sh.r.Close()
		sh.r = nil
	}
	for _, f := range sh.retired {
		f.Close()
	}
	sh.retired = nil
	sh.rmu.Unlock()
}
