package varius

import (
	"fmt"

	"repro/internal/artifact"
	"repro/internal/grid"
)

// chipBinVersion is the chip payload's binary format version,
// independent of the artifact kind version: the artifact store keeps
// chips in this form only, and UnmarshalBinary rejects any other.
const chipBinVersion = 1

// MarshalBinary serializes the chip maps in the artifact store's
// columnar form: the two systematic grids become contiguous
// little-endian float64 blocks instead of JSON number arrays. Exact
// bit-for-bit round-trip, like the JSON codec.
func (c *ChipMaps) MarshalBinary() ([]byte, error) {
	g := c.VtSys.Grid
	var e artifact.Enc
	e.B = make([]byte, 0, 64+16*len(c.VtSys.Values))
	e.Tag(chipBinVersion)
	e.Varint(c.Seed)
	e.Uvarint(uint64(g.W))
	e.Uvarint(uint64(g.H))
	e.F64(g.Side)
	e.F64s(c.VtSys.Values)
	e.F64s(c.LeffSys.Values)
	e.F64(c.VtSigmaRan)
	e.F64(c.LeffSigmaRan)
	e.Bool(c.NoVariation)
	return e.B, nil
}

// UnmarshalBinary restores chip maps from the binary form, validating
// the geometry exactly as the JSON decoder does.
func (c *ChipMaps) UnmarshalBinary(data []byte) error {
	d := artifact.NewDec(data)
	if v := d.Tag(); d.Err() == nil && v != chipBinVersion {
		return fmt.Errorf("varius: corrupt chip state: binary version %d", v)
	}
	seed := d.Varint()
	w := int(d.Uvarint())
	h := int(d.Uvarint())
	side := d.F64()
	vtSys := d.F64s(nil)
	leffSys := d.F64s(nil)
	vtSigma := d.F64()
	leffSigma := d.F64()
	noVar := d.Bool()
	if err := d.Done(); err != nil {
		return fmt.Errorf("varius: corrupt chip state: %w", err)
	}
	g, err := grid.New(w, h, side)
	if err != nil {
		return fmt.Errorf("varius: corrupt chip state: %w", err)
	}
	if len(vtSys) != g.N() || len(leffSys) != g.N() {
		return fmt.Errorf("varius: corrupt chip state: %d/%d values for a %d-cell grid",
			len(vtSys), len(leffSys), g.N())
	}
	if vtSigma < 0 || leffSigma < 0 {
		return fmt.Errorf("varius: corrupt chip state: negative random sigma")
	}
	c.Seed = seed
	c.VtSys = &grid.Field{Grid: g, Values: vtSys}
	c.LeffSys = &grid.Field{Grid: g, Values: leffSys}
	c.VtSigmaRan = vtSigma
	c.LeffSigmaRan = leffSigma
	c.NoVariation = noVar
	return nil
}
