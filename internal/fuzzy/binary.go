package fuzzy

import (
	"errors"

	"repro/internal/artifact"
	"repro/internal/mathx"
)

// AppendBinary encodes the controller onto e in the artifact store's
// columnar form: each rule's centers and widths, the consequents, and
// the normalization bounds as contiguous little-endian float64 blocks.
// The layout is rules, width, mu rows, sigma rows, y, lo, hi, fallback;
// every row carries its own length prefix.
func (c *Controller) AppendBinary(e *artifact.Enc) {
	rules := len(c.y)
	width := 0
	if rules > 0 {
		width = len(c.lo)
	}
	e.Uvarint(uint64(rules))
	e.Uvarint(uint64(width))
	for _, w := range [2][]float64{c.mu, c.sigma} {
		for r := 0; r < rules; r++ {
			e.F64s(w[r*width : (r+1)*width])
		}
	}
	e.F64s(c.y)
	e.F64s(c.lo)
	e.F64s(c.hi)
	e.F64(c.fallback)
}

// DecodeBinary restores a controller encoded by AppendBinary. It rejects
// a state with no rules or with a row of the wrong width, and it carries
// finite values only: a NaN or infinite weight, bound or fallback is
// corrupt, as training never produces one.
//
// Every float lands in one allocation, sized from the header once the
// header is known to fit the bytes left: each of the 2·rules rows takes
// at least a length byte and 8·width bytes, so a header announcing more
// is corrupt before anything is allocated. Each row is read into its
// place in the flat arrays.
func (c *Controller) DecodeBinary(d *artifact.Dec) error {
	rules := d.Uvarint()
	width := d.Uvarint()
	if d.Err() != nil || rules == 0 || rules > 1<<16 || width > 1<<16 ||
		2*rules*(1+8*width) > uint64(d.Remaining()) {
		return errors.New("fuzzy: corrupt controller state")
	}
	nr, m := int(rules), int(width)
	buf := make([]float64, 2*nr*m+nr+2*m)
	mu, sigma := buf[:nr*m:nr*m], buf[nr*m:2*nr*m:2*nr*m]
	for _, w := range [2][]float64{mu, sigma} {
		for r := 0; r < nr; r++ {
			if row := d.F64s(w[r*m : (r+1)*m : (r+1)*m]); d.Err() == nil && len(row) != m {
				return errors.New("fuzzy: corrupt controller state (rule width)")
			}
		}
	}
	rest := buf[2*nr*m:]
	y := d.F64s(rest[:nr:nr])
	lo := d.F64s(rest[nr : nr+m : nr+m])
	hi := d.F64s(rest[nr+m:])
	fallback := d.F64()
	if d.Err() != nil {
		return d.Err()
	}
	if len(y) != nr || len(lo) != m || len(hi) != m {
		return errors.New("fuzzy: corrupt controller state")
	}
	if !mathx.AllFinite(buf...) || !mathx.AllFinite(fallback) {
		return errors.New("fuzzy: corrupt controller state (non-finite weight)")
	}
	c.mu, c.sigma, c.y, c.lo, c.hi, c.fallback = mu, sigma, y, lo, hi, fallback
	return nil
}
