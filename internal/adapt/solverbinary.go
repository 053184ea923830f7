package adapt

import (
	"fmt"
	"sort"

	"repro/internal/artifact"
	"repro/internal/fuzzy"
	"repro/internal/mathx"
	"repro/internal/vats"
)

// solverBinVersion is the solver payload's binary format version,
// independent of the artifact kind version: the artifact store keeps
// solvers in this form only, and UnmarshalBinary rejects any other.
const solverBinVersion = 1

// MarshalBinary serializes the solver's controllers in the artifact
// store's columnar form — the same shippable tables MarshalJSON writes,
// with every weight matrix as contiguous little-endian float64 blocks.
// Entries are sorted like the JSON form, so the encoding is
// deterministic.
func (s *FuzzySolver) MarshalBinary() ([]byte, error) {
	type entry struct {
		key fcKey
	}
	entries := make([]entry, 0, len(s.freq))
	for key := range s.freq {
		entries = append(entries, entry{key: key})
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i].key, entries[j].key
		if a.sub != b.sub {
			return a.sub < b.sub
		}
		return a.variant.MeanScale < b.variant.MeanScale
	})

	var e artifact.Enc
	e.Tag(solverBinVersion)
	e.F64(s.minBiasComp)
	e.Uvarint(uint64(len(entries)))
	for _, en := range entries {
		key := en.key
		freq, vdd, vbb := s.freq[key], s.vdd[key], s.vbb[key]
		if freq == nil || vdd == nil || vbb == nil {
			return nil, fmt.Errorf("adapt: solver entry for sub %d has nil controllers", key.sub)
		}
		e.Varint(int64(key.sub))
		e.F64(key.variant.MeanScale)
		e.F64(key.variant.SigmaScale)
		e.Bool(key.variant.PreserveWall)
		e.F64(s.freqBias[key])
		freq.AppendBinary(&e)
		vdd.AppendBinary(&e)
		vbb.AppendBinary(&e)
	}
	return e.B, nil
}

// UnmarshalBinary restores a solver encoded by MarshalBinary.
func (s *FuzzySolver) UnmarshalBinary(data []byte) error {
	d := artifact.NewDec(data)
	if v := d.Tag(); d.Err() == nil && v != solverBinVersion {
		return fmt.Errorf("adapt: corrupt solver state: binary version %d", v)
	}
	minBiasComp := d.F64()
	n := d.Uvarint()
	if d.Err() != nil {
		return fmt.Errorf("adapt: corrupt solver state: %w", d.Err())
	}
	if n > 1<<16 || n > uint64(d.Remaining()) || !mathx.AllFinite(minBiasComp) {
		return fmt.Errorf("adapt: corrupt solver state: %d entries, bias compensation %v", n, minBiasComp)
	}
	s.freq = make(map[fcKey]*fuzzy.Controller, n)
	s.vdd = make(map[fcKey]*fuzzy.Controller, n)
	s.vbb = make(map[fcKey]*fuzzy.Controller, n)
	s.freqBias = make(map[fcKey]float64, n)
	s.minBiasComp = minBiasComp
	for i := uint64(0); i < n; i++ {
		sub := int(d.Varint())
		variant := vats.Variant{
			MeanScale:    d.F64(),
			SigmaScale:   d.F64(),
			PreserveWall: d.Bool(),
		}
		bias := d.F64()
		if d.Err() == nil && !mathx.AllFinite(variant.MeanScale, variant.SigmaScale, bias) {
			return fmt.Errorf("adapt: corrupt solver state for sub %d: non-finite variant or bias", sub)
		}
		freq, vdd, vbb := new(fuzzy.Controller), new(fuzzy.Controller), new(fuzzy.Controller)
		for _, fc := range []*fuzzy.Controller{freq, vdd, vbb} {
			if err := fc.DecodeBinary(d); err != nil {
				return fmt.Errorf("adapt: corrupt solver state for sub %d: %w", sub, err)
			}
		}
		key := fcKey{sub: sub, variant: variant}
		s.freq[key] = freq
		s.vdd[key] = vdd
		s.vbb[key] = vbb
		s.freqBias[key] = bias
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("adapt: corrupt solver state: %w", err)
	}
	return nil
}
