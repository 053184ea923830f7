package core

import (
	"repro/internal/obs"
	"repro/internal/workload"
)

// prefetchProfiles warms every (app, phase) performance profile an
// experiment will read before its main pool starts; each lands in the
// in-memory profile cache (and, with a store attached, the artifact
// store). The profiles fan out over the run's worker budget, so they
// build — and write their records — concurrently with each other,
// instead of serializing at first use inside the experiment pool.
//
// Every profile is a pure function of (parameters, seed), so warming in
// any order — or not at all — cannot change a result; failures are left
// for the experiment's own calls to surface with proper context.
func (s *Simulator) prefetchProfiles(cfg ExperimentConfig, apps []workload.App) {
	type unit struct {
		app workload.App
		ph  workload.Phase
	}
	var units []unit
	for _, app := range apps {
		for _, ph := range app.Phases {
			units = append(units, unit{app, ph})
		}
	}
	if len(units) == 0 {
		return
	}
	defer s.obs.Timer("core.prefetch").Start().Stop()
	obs.RunPool(s.obs, "core.prefetch", cfg.Workers, len(units), func(_, u int) {
		_, _ = s.Profile(units[u].app, units[u].ph)
	})
}
