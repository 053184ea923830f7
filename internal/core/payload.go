package core

import (
	"fmt"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/floorplan"
	"repro/internal/pipeline"
	"repro/internal/tech"
	"repro/internal/workload"
)

// Binary payload format versions for the artifact kinds whose structs
// live in (or are assembled by) this package. Independent of the kind
// versions in cache.go: bumping a kind version re-keys its entries,
// while bumping a format version keeps the keys and makes the decoder
// reject older records, which then rebuild as corrupt.
const (
	profileBinVersion  = 1
	petablesBinVersion = 1
	apprunBinVersion   = 1
	staticptBinVersion = 1
)

// encodeProfile serializes one phase profile in the columnar binary
// form.
func encodeProfile(p pipeline.Profile) []byte {
	var e artifact.Enc
	e.Tag(profileBinVersion)
	e.String(p.AppName)
	e.Varint(int64(p.Class))
	e.Varint(int64(p.PhaseIndex))
	e.F64(p.Weight)
	e.F64(p.CPICompFull)
	e.F64(p.CPICompSmall)
	e.F64(p.Mr)
	e.F64(p.MpNomCycles)
	e.F64s(p.Activity[:])
	e.F64(p.MispredictsPerInstr)
	return e.B
}

// decodeProfile restores a profile encoded by encodeProfile.
func decodeProfile(data []byte, p *pipeline.Profile) error {
	d := artifact.NewDec(data)
	if v := d.Tag(); d.Err() == nil && v != profileBinVersion {
		return fmt.Errorf("core: corrupt profile payload: binary version %d", v)
	}
	p.AppName = d.String()
	p.Class = workload.Class(d.Varint())
	p.PhaseIndex = int(d.Varint())
	p.Weight = d.F64()
	p.CPICompFull = d.F64()
	p.CPICompSmall = d.F64()
	p.Mr = d.F64()
	p.MpNomCycles = d.F64()
	activity := d.F64s(p.Activity[:0])
	p.MispredictsPerInstr = d.F64()
	if err := d.Done(); err != nil {
		return fmt.Errorf("core: corrupt profile payload: %w", err)
	}
	if len(activity) != int(floorplan.NumSubsystems) {
		return fmt.Errorf("core: corrupt profile payload: %d activity entries", len(activity))
	}
	copy(p.Activity[:], activity)
	return nil
}

// encodeAppRun serializes one finished application run. Every float is an
// exact float64 round-trip, so a cached run folds into the summary
// byte-identically to a recomputed one.
func encodeAppRun(r AppRun) []byte {
	var e artifact.Enc
	e.Tag(apprunBinVersion)
	e.String(r.App)
	e.Varint(int64(r.Env))
	e.Varint(int64(r.Mode))
	e.F64(r.FRel)
	e.F64(r.Perf)
	e.F64(r.PowerW)
	e.F64(r.PE)
	e.Uvarint(uint64(len(r.Outcomes)))
	for _, n := range r.Outcomes {
		e.Varint(int64(n))
	}
	e.F64(r.SmallQueueFrac)
	e.F64(r.LowSlopeFrac)
	return e.B
}

// decodeAppRun restores a run encoded by encodeAppRun.
func decodeAppRun(data []byte, r *AppRun) error {
	d := artifact.NewDec(data)
	if v := d.Tag(); d.Err() == nil && v != apprunBinVersion {
		return fmt.Errorf("core: corrupt apprun payload: binary version %d", v)
	}
	r.App = d.String()
	r.Env = Environment(d.Varint())
	r.Mode = Mode(d.Varint())
	r.FRel = d.F64()
	r.Perf = d.F64()
	r.PowerW = d.F64()
	r.PE = d.F64()
	n := d.Uvarint()
	if d.Err() == nil && n != uint64(len(r.Outcomes)) {
		return fmt.Errorf("core: corrupt apprun payload: %d outcome buckets", n)
	}
	for i := range r.Outcomes {
		r.Outcomes[i] = int(d.Varint())
	}
	r.SmallQueueFrac = d.F64()
	r.LowSlopeFrac = d.F64()
	if err := d.Done(); err != nil {
		return fmt.Errorf("core: corrupt apprun payload: %w", err)
	}
	return nil
}

// encodePoint serializes a static operating point.
func encodePoint(p adapt.OperatingPoint) []byte {
	var e artifact.Enc
	e.Tag(staticptBinVersion)
	e.F64(p.FCore)
	e.F64s(p.VddV)
	e.F64s(p.VbbV)
	e.Varint(int64(p.Queue))
	e.Varint(int64(p.FU))
	return e.B
}

// decodePoint restores a point encoded by encodePoint.
func decodePoint(data []byte, p *adapt.OperatingPoint) error {
	d := artifact.NewDec(data)
	if v := d.Tag(); d.Err() == nil && v != staticptBinVersion {
		return fmt.Errorf("core: corrupt staticpt payload: binary version %d", v)
	}
	p.FCore = d.F64()
	p.VddV = d.F64s(p.VddV[:0])
	p.VbbV = d.F64s(p.VbbV[:0])
	p.Queue = tech.QueueSize(d.Varint())
	p.FU = tech.FUChoice(d.Varint())
	if err := d.Done(); err != nil {
		return fmt.Errorf("core: corrupt staticpt payload: %w", err)
	}
	if len(p.VddV) != len(p.VbbV) {
		return fmt.Errorf("core: corrupt staticpt payload: %d vdd vs %d vbb entries", len(p.VddV), len(p.VbbV))
	}
	return nil
}

// encodePETables serializes the accumulated dense PE-fmax tables.
func encodePETables(tabs []adapt.PETableSlot) []byte {
	var e artifact.Enc
	e.B = make([]byte, 0, 8+len(tabs)*72)
	e.Tag(petablesBinVersion)
	e.Uvarint(uint64(len(tabs)))
	for _, t := range tabs {
		e.Varint(int64(t.Slot))
		e.U8(t.Mask)
		for _, f := range t.FMax {
			e.F64(f)
		}
	}
	return e.B
}

// decodePETables restores tables encoded by encodePETables.
func decodePETables(data []byte) ([]adapt.PETableSlot, error) {
	d := artifact.NewDec(data)
	if v := d.Tag(); d.Err() == nil && v != petablesBinVersion {
		return nil, fmt.Errorf("core: corrupt petables payload: binary version %d", v)
	}
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, fmt.Errorf("core: corrupt petables payload: %w", d.Err())
	}
	// Each slot takes a slot varint, a mask byte and its columns, so the
	// remaining bytes bound an honest count.
	if n > uint64(d.Remaining()/(2+8*len(adapt.PETableSlot{}.FMax))) {
		return nil, fmt.Errorf("core: corrupt petables payload: %d slots in %d bytes", n, d.Remaining())
	}
	tabs := make([]adapt.PETableSlot, n)
	for i := range tabs {
		tabs[i].Slot = int(d.Varint())
		tabs[i].Mask = d.U8()
		for j := range tabs[i].FMax {
			tabs[i].FMax[j] = d.F64()
		}
	}
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("core: corrupt petables payload: %w", err)
	}
	return tabs, nil
}
