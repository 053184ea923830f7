package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// BinaryTag is the first byte of every binary artifact payload. Dec.Tag
// rejects anything else, so a payload in another format — a JSON
// document begins with '{' — fails its decoder and is rebuilt as a
// corrupt record.
const BinaryTag = 0xB2

// Enc is an append-only binary encoder for artifact payloads: varints for
// the small integers, raw little-endian words for float64 values so dense
// numeric columns round-trip bit-for-bit with no number formatting or
// parsing. The zero value is ready to use; B holds the encoded bytes.
type Enc struct {
	B []byte
}

// Tag begins a binary payload: the BinaryTag byte followed by a
// kind-specific format version.
func (e *Enc) Tag(version int) {
	e.B = append(e.B, BinaryTag)
	e.Uvarint(uint64(version))
}

// Uvarint appends an unsigned varint.
func (e *Enc) Uvarint(v uint64) {
	e.B = binary.AppendUvarint(e.B, v)
}

// Varint appends a signed (zig-zag) varint.
func (e *Enc) Varint(v int64) {
	e.B = binary.AppendVarint(e.B, v)
}

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.B = append(e.B, b)
}

// U8 appends one raw byte.
func (e *Enc) U8(v byte) {
	e.B = append(e.B, v)
}

// F64 appends one float64 as its IEEE-754 bits, little-endian.
func (e *Enc) F64(v float64) {
	e.B = binary.LittleEndian.AppendUint64(e.B, math.Float64bits(v))
}

// F64s appends a length-prefixed float64 column as one contiguous
// little-endian block — the columnar encoding for chip grids, controller
// weight matrices, and PE tables.
func (e *Enc) F64s(v []float64) {
	e.Uvarint(uint64(len(v)))
	off := len(e.B)
	e.B = append(e.B, make([]byte, 8*len(v))...)
	for i, f := range v {
		binary.LittleEndian.PutUint64(e.B[off+8*i:], math.Float64bits(f))
	}
}

// String appends a length-prefixed string.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// errCorrupt is the generic decoder failure; callers wrap it with their
// payload kind for context.
var errCorrupt = errors.New("truncated or corrupt binary payload")

// Dec decodes what Enc encodes. The first failed read poisons the
// decoder: every later read returns zero values and Err reports the
// failure, so codecs can decode a whole struct and check once.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over data.
func NewDec(data []byte) *Dec {
	return &Dec{b: data}
}

// Tag consumes the BinaryTag byte and returns the payload's format
// version, failing if the data does not start a binary payload.
func (d *Dec) Tag() int {
	if d.err == nil && (d.off >= len(d.b) || d.b[d.off] != BinaryTag) {
		d.err = errCorrupt
	}
	if d.err != nil {
		return 0
	}
	d.off++
	return int(d.Uvarint())
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = errCorrupt
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = errCorrupt
		return 0
	}
	d.off += n
	return v
}

// Bool reads one byte as a bool.
func (d *Dec) Bool() bool {
	return d.U8() != 0
}

// U8 reads one raw byte.
func (d *Dec) U8() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = errCorrupt
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// F64 reads one little-endian float64.
func (d *Dec) F64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.err = errCorrupt
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// F64s reads a length-prefixed float64 column into dst (grown as needed,
// reused when its capacity suffices — decode scratch comes from the
// caller, typically a sync.Pool).
func (d *Dec) F64s(dst []float64) []float64 {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining())/8 {
		d.err = errCorrupt
		return nil
	}
	if cap(dst) < int(n) {
		dst = make([]float64, n)
	} else {
		dst = dst[:n]
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off+8*i:]))
	}
	d.off += 8 * int(n)
	return dst
}

// String reads a length-prefixed string.
func (d *Dec) String() string {
	b := d.Bytes()
	return string(b)
}

// Bytes reads a length-prefixed byte slice, aliasing the decoder's
// backing array (copy before retaining past the decode).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.err = errCorrupt
		return nil
	}
	b := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// Remaining returns how many bytes are left to decode: an upper bound on
// the elements a length prefix may honestly announce, which decoders
// check before allocating for it.
func (d *Dec) Remaining() int {
	return len(d.b) - d.off
}

// Err reports the first decode failure, nil if every read succeeded.
func (d *Dec) Err() error {
	return d.err
}

// Done is Err plus a trailing-garbage check: a payload that decodes but
// leaves unconsumed bytes is corrupt (or from a newer producer).
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("binary payload has %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}
