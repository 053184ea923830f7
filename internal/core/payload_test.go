package core

import (
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/vats"
)

// FuzzDecodePETables fuzzes the petables payload decoder, which a chip's
// first PE-table miss feeds from the store: decodePETables never panics,
// and a payload it accepts re-encodes to a payload that decodes to the
// same slots, bit for bit. The seeds are a real record (the first tables
// a Freq solve builds on a real chip), its truncations, length lies in
// the slot count, and trailing bytes.
func FuzzDecodePETables(f *testing.F) {
	opts := DefaultOptions()
	opts.TraceLen = 6000
	s, err := NewSimulator(opts)
	if err != nil {
		f.Fatal(err)
	}
	cpu, err := s.BuildCore(s.Chip(7), TSASV)
	if err != nil {
		f.Fatal(err)
	}
	cpu.FreqSolve(0, adapt.FreqQuery{THK: 60 + 273.15, AlphaF: 0.4, Rho: 0.9, Variant: vats.IdentityVariant(), PowerMult: 1})
	tabs := cpu.ExportPETables()
	if len(tabs) < 3 {
		f.Fatalf("a Freq solve built %d tables", len(tabs))
	}
	rec := encodePETables(tabs[:3])
	if _, err := decodePETables(rec); err != nil {
		f.Fatalf("the real record does not decode: %v", err)
	}
	f.Add(rec)
	for _, n := range []int{0, 1, 2, 3, 4, len(rec) / 2, len(rec) - 1} {
		f.Add(rec[:n])
	}
	// Byte 2 is the slot count (tag, version).
	for _, lie := range [][]byte{{4}, {2}, {0}, {0xff, 0xff, 0xff, 0x07}} {
		f.Add(append(append(append([]byte(nil), rec[:2]...), lie...), rec[3:]...))
	}
	f.Add(append(append([]byte(nil), rec...), 0))
	f.Add(append(append([]byte(nil), rec...), rec[3:70]...))
	f.Fuzz(func(t *testing.T, data []byte) {
		tabs, err := decodePETables(data)
		if err != nil {
			return
		}
		again, err := decodePETables(encodePETables(tabs))
		if err != nil {
			t.Fatalf("re-encoded payload rejected: %v", err)
		}
		if len(again) != len(tabs) {
			t.Fatalf("re-encoded payload holds %d slots, want %d", len(again), len(tabs))
		}
		for i, a := range tabs {
			b := again[i]
			if a.Slot != b.Slot || a.Mask != b.Mask {
				t.Fatalf("slot %d: %d/%#x re-decodes as %d/%#x", i, a.Slot, a.Mask, b.Slot, b.Mask)
			}
			for j := range a.FMax {
				if math.Float64bits(a.FMax[j]) != math.Float64bits(b.FMax[j]) {
					t.Fatalf("slot %d column %d: %v re-decodes as %v", i, j, a.FMax[j], b.FMax[j])
				}
			}
		}
	})
}
