package core

import (
	"repro/internal/obs"
	"repro/internal/varius"
	"repro/internal/workload"
)

// prefetchArtifacts warms the cold path's shared inputs before an
// experiment's main pool starts: the chip variation maps of every seed the
// run will touch (only with an artifact store attached — without one the
// built chip has nowhere to live and would just be rebuilt) and every
// (app, phase) performance profile, which lands in the in-memory profile
// cache either way. The units fan out over the run's worker budget, so
// store misses build concurrently with each other and overlap the store's
// background flusher, instead of serializing at first use inside the
// experiment pool, where a chip's units wait on its handle acquisition.
//
// Every unit is a pure function of (parameters, seed), so warming in any
// order — or not at all — cannot change a result; failures are left for
// the experiment's own calls to surface with proper context.
func (s *Simulator) prefetchArtifacts(cfg ExperimentConfig, apps []workload.App) {
	var units []func()
	if s.store != nil {
		for ci := 0; ci < cfg.Chips; ci++ {
			seed := cfg.SeedBase + int64(ci)
			units = append(units, func() {
				chip := s.cachedChip(seed)
				if chip == nil {
					return
				}
				// Stash for a one-shot handoff to the pool's first
				// Chip(seed) call, which would otherwise decode the chip
				// from the store a second time.
				s.mu.Lock()
				if s.prefetched == nil {
					s.prefetched = make(map[int64]*varius.ChipMaps)
				}
				s.prefetched[seed] = chip
				s.mu.Unlock()
			})
		}
	}
	for _, app := range apps {
		for _, ph := range app.Phases {
			app, ph := app, ph
			units = append(units, func() { _, _ = s.Profile(app, ph) })
		}
	}
	if len(units) == 0 {
		return
	}
	defer s.obs.Timer("core.prefetch").Start().Stop()
	obs.RunPool(s.obs, "core.prefetch", cfg.Workers, len(units), func(_, u int) {
		units[u]()
	})
}
