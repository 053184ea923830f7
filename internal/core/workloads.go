package core

import (
	"repro/internal/artifact"
	"repro/internal/workload"
)

// GeneratedApps lowers a workload spec at a seed to runnable apps. With
// an artifact store attached, the generated trace is persisted under its
// (spec, seed) key, so later runs — in this or any process — replay the
// stored canonical document instead of regenerating it; either path
// yields byte-identical traces, and thus identical apps, profiles, and
// experiment rows. The returned apps carry the trace's content hash as
// provenance (see workload.App.Trace).
func (s *Simulator) GeneratedApps(spec workload.Spec, seed int64) ([]workload.App, error) {
	if s.store == nil {
		return workload.GenerateApps(spec, seed)
	}
	doc, err := TraceArtifact(s.store, spec, seed)
	if err != nil {
		return nil, err
	}
	t, err := workload.DecodeTrace(doc)
	if err != nil {
		return nil, err
	}
	return t.Lower()
}

// TraceArtifact returns the canonical encoded TraceV1 document of (spec,
// seed) through the artifact store: a hit replays the stored document, a
// miss generates, persists, and returns it. A nil store (or an unkeyable
// spec) generates directly. This is the shared entry point behind both
// the simulator's generated workloads and tracegen's -cache-dir flag, so
// a trace either tool produces is the byte-identical document the other
// replays.
func TraceArtifact(store *artifact.Store, spec workload.Spec, seed int64) ([]byte, error) {
	key := storeKey(store, traceKind, seed, func() any { return spec })
	return cached(store, traceKind, key,
		func(payload []byte, doc *[]byte) error {
			// Reject corrupt or stale entries here so the store's
			// degradation path (count, rebuild, overwrite) handles them.
			if _, err := workload.DecodeTrace(payload); err != nil {
				return err
			}
			*doc = append([]byte(nil), payload...)
			return nil
		},
		func(doc []byte) ([]byte, error) { return doc, nil },
		func() ([]byte, error) {
			t, err := workload.Generate(spec, seed)
			if err != nil {
				return nil, err
			}
			return t.Encode()
		})
}
