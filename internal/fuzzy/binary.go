package fuzzy

import (
	"errors"

	"repro/internal/artifact"
	"repro/internal/mathx"
)

// AppendBinary encodes the controller onto e in the artifact store's
// columnar form: each rule's centers and widths, the consequents, and
// the normalization bounds as contiguous little-endian float64 blocks.
// The layout is rules, width, mu rows, sigma rows, y, lo, hi, fallback.
func (c *Controller) AppendBinary(e *artifact.Enc) {
	e.Uvarint(uint64(len(c.mu)))
	width := 0
	if len(c.mu) > 0 {
		width = len(c.mu[0])
	}
	e.Uvarint(uint64(width))
	for _, row := range c.mu {
		e.F64s(row)
	}
	for _, row := range c.sigma {
		e.F64s(row)
	}
	e.F64s(c.y)
	e.F64s(c.lo)
	e.F64s(c.hi)
	e.F64(c.fallback)
}

// DecodeBinary restores a controller encoded by AppendBinary, applying
// the same structural validation as UnmarshalJSON. Like the JSON form,
// it carries finite values only: a NaN or infinite weight, bound or
// fallback is corrupt, as training never produces one.
func (c *Controller) DecodeBinary(d *artifact.Dec) error {
	rules := d.Uvarint()
	width := d.Uvarint()
	if d.Err() != nil || rules == 0 || rules > 1<<16 || rules > uint64(d.Remaining()) || width > 1<<16 {
		return errors.New("fuzzy: corrupt controller state")
	}
	mu := make([][]float64, rules)
	sigma := make([][]float64, rules)
	for r := range mu {
		mu[r] = d.F64s(nil)
	}
	for r := range sigma {
		sigma[r] = d.F64s(nil)
	}
	y := d.F64s(nil)
	lo := d.F64s(nil)
	hi := d.F64s(nil)
	fallback := d.F64()
	if d.Err() != nil {
		return d.Err()
	}
	if len(y) != int(rules) || len(lo) != int(width) || len(hi) != int(width) {
		return errors.New("fuzzy: corrupt controller state")
	}
	for r := range mu {
		if len(mu[r]) != len(lo) || len(sigma[r]) != len(lo) {
			return errors.New("fuzzy: corrupt controller state (rule width)")
		}
		if !mathx.AllFinite(mu[r]...) || !mathx.AllFinite(sigma[r]...) {
			return errors.New("fuzzy: corrupt controller state (non-finite weight)")
		}
	}
	if !mathx.AllFinite(y...) || !mathx.AllFinite(lo...) || !mathx.AllFinite(hi...) || !mathx.AllFinite(fallback) {
		return errors.New("fuzzy: corrupt controller state (non-finite weight)")
	}
	c.mu, c.sigma, c.y, c.lo, c.hi, c.fallback = mu, sigma, y, lo, hi, fallback
	return nil
}
