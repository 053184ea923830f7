package core

import (
	"math"
	"testing"

	"repro/internal/adapt"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/tech"
	"repro/internal/vats"
	"repro/internal/workload"
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

// Payload kinds FuzzDecodePayloads selects with its first argument.
const (
	fuzzAppRun uint8 = iota
	fuzzProfile
	fuzzStaticPt
)

// FuzzDecodePayloads fuzzes the apprun, profile and staticpt payload
// decoders that warm experiments and the fleet read store records
// through; kind picks the decoder. None panics, and a value one accepts
// holds only finite floats and comes back unchanged, bit for bit, from
// an encode/decode round trip. The seeds are a profile the pipeline
// model built, a hand-made run and a hand-made static point for a core
// of floorplan.NumSubsystems subsystems; each again with a NaN or
// infinite float; a point with empty arrays and one with an unknown
// queue size; and truncations and a trailing byte of each record.
func FuzzDecodePayloads(f *testing.F) {
	opts := DefaultOptions()
	opts.TraceLen = 6000
	s, err := NewSimulator(opts)
	if err != nil {
		f.Fatal(err)
	}
	gcc, err := workload.ByName("gcc")
	if err != nil {
		f.Fatal(err)
	}
	prof, err := s.Profile(gcc, gcc.Phases[0])
	if err != nil {
		f.Fatal(err)
	}
	run := AppRun{App: "gcc", Env: TSASV, Mode: FuzzyDyn, FRel: 1.12, Perf: 0.93, PowerW: 27.5,
		PE: 3e-7, Outcomes: [adapt.NumOutcomes]int{5, 0, 2}, SmallQueueFrac: 0.25, LowSlopeFrac: 0.5}
	n := int(floorplan.NumSubsystems)
	point := func() adapt.OperatingPoint {
		p := adapt.OperatingPoint{FCore: 1.08, VddV: make([]float64, n), VbbV: make([]float64, n),
			Queue: tech.QueueThreeQuarter, FU: tech.FULowSlope}
		for i := range p.VddV {
			p.VddV[i], p.VbbV[i] = 1+0.01*float64(i), -0.05
		}
		return p
	}
	records := map[uint8][]byte{
		fuzzAppRun:   encodeAppRun(run),
		fuzzProfile:  encodeProfile(prof),
		fuzzStaticPt: encodePoint(point()),
	}
	for kind, rec := range records {
		f.Add(kind, rec)
		for _, cut := range []int{0, 1, 2, len(rec) / 2, len(rec) - 1} {
			f.Add(kind, rec[:cut])
		}
		f.Add(kind, append(append([]byte(nil), rec...), 0))
	}
	badRun := run
	badRun.FRel = math.NaN()
	f.Add(fuzzAppRun, encodeAppRun(badRun))
	badRun = run
	badRun.LowSlopeFrac = math.Inf(1)
	f.Add(fuzzAppRun, encodeAppRun(badRun))
	badProf := prof
	badProf.Activity[3] = math.NaN()
	f.Add(fuzzProfile, encodeProfile(badProf))
	badProf = prof
	badProf.Weight = math.Inf(-1)
	f.Add(fuzzProfile, encodeProfile(badProf))
	badPoint := point()
	badPoint.VbbV[n-1] = math.NaN()
	f.Add(fuzzStaticPt, encodePoint(badPoint))
	badPoint = point()
	badPoint.Queue = 7
	f.Add(fuzzStaticPt, encodePoint(badPoint))
	f.Add(fuzzStaticPt, encodePoint(adapt.OperatingPoint{FCore: 1}))

	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var floats, again []float64
		var same bool
		switch kind % 3 {
		case fuzzAppRun:
			var r, back AppRun
			if decodeAppRun(data, &r) != nil {
				return
			}
			if err := decodeAppRun(encodeAppRun(r), &back); err != nil {
				t.Fatalf("re-encoded apprun rejected: %v", err)
			}
			floats, again = runFloats(r), runFloats(back)
			same = r.App == back.App && r.Env == back.Env && r.Mode == back.Mode && r.Outcomes == back.Outcomes
		case fuzzProfile:
			var p, back pipeline.Profile
			if decodeProfile(data, &p) != nil {
				return
			}
			if err := decodeProfile(encodeProfile(p), &back); err != nil {
				t.Fatalf("re-encoded profile rejected: %v", err)
			}
			floats, again = profileFloats(p), profileFloats(back)
			same = p.AppName == back.AppName && p.Class == back.Class && p.PhaseIndex == back.PhaseIndex
		case fuzzStaticPt:
			var p, back adapt.OperatingPoint
			if decodePoint(data, &p, n) != nil {
				return
			}
			if err := decodePoint(encodePoint(p), &back, n); err != nil {
				t.Fatalf("re-encoded static point rejected: %v", err)
			}
			floats, again = pointFloats(p), pointFloats(back)
			same = len(p.VddV) == n && len(p.VbbV) == n && p.Queue == back.Queue && p.FU == back.FU
		}
		if !same || len(floats) != len(again) {
			t.Fatalf("kind %d: an accepted payload changed in an encode/decode round trip", kind%3)
		}
		for i, x := range floats {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("kind %d: accepted a non-finite float %v (float %d)", kind%3, x, i)
			}
			if math.Float64bits(x) != math.Float64bits(again[i]) {
				t.Fatalf("kind %d: float %d: %v re-decodes as %v", kind%3, i, x, again[i])
			}
		}
	})
}

func runFloats(r AppRun) []float64 {
	return []float64{r.FRel, r.Perf, r.PowerW, r.PE, r.SmallQueueFrac, r.LowSlopeFrac}
}

func profileFloats(p pipeline.Profile) []float64 {
	return append([]float64{p.Weight, p.CPICompFull, p.CPICompSmall, p.Mr, p.MpNomCycles, p.MispredictsPerInstr},
		p.Activity[:]...)
}

func pointFloats(p adapt.OperatingPoint) []float64 {
	return append(append([]float64{p.FCore}, p.VddV...), p.VbbV...)
}
