package main

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The serve oracle recomputes every served run result in process through
// the path the fleet's workers take — AcquireChip, HandleCore,
// UnitAppRun — on a fresh Simulator with no artifact store, and requires
// the canonical RunPayload to match bit for bit.
//
// A unit's payload is not a function of (chip, env, mode, app, phase)
// alone: an adapt.Core warm-starts its thermal solver from the previous
// Evaluate and memoizes solves, so the same unit solved after different
// predecessors on one core can differ in the last digits (measured: up to
// ~1e-3 relative in PE). The oracle therefore replays each worker's
// history: per chip, per (worker, env) a fresh core — the fleet's
// WorkerView — solving the chip's tasks in the order they executed, each
// distinct (app, phase) of a task once, as the fleet's runTask does.

// servedTask is one dispatched unit batch as its results show it.
type servedTask struct {
	worker    int
	env, mode string
	results   []fleet.Result
}

// history records served run results in execution order, per chip.
// Per-chip order is the order batches arrived in: every chip belongs to
// one client, whose batches are sequential.
type history struct {
	mu    sync.Mutex
	tasks map[int64][]servedTask
}

func newHistory() *history { return &history{tasks: make(map[int64][]servedTask)} }

// add records one batch's OK run results, grouped into the tasks that
// produced them: one per (chip, env, mode) and worker.
func (h *history) add(rs []fleet.Result) {
	type taskKey struct {
		chip      int64
		env, mode string
		worker    int
	}
	idx := make(map[taskKey]int)
	var tasks []servedTask
	var chips []int64
	for _, r := range rs {
		if r.Kind != fleet.KindRun || r.Status != fleet.StatusOK || r.Run == nil {
			continue
		}
		k := taskKey{r.Chip, r.Env, r.Mode, r.Worker}
		i, ok := idx[k]
		if !ok {
			i = len(tasks)
			idx[k] = i
			tasks = append(tasks, servedTask{worker: r.Worker, env: r.Env, mode: r.Mode})
			chips = append(chips, r.Chip)
		}
		tasks[i].results = append(tasks[i].results, r)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, t := range tasks {
		h.tasks[chips[i]] = append(h.tasks[chips[i]], t)
	}
}

// verify replays every chip's history and accounts each result whose
// payload differs from the replay as failed. The results were counted
// as attempted (and as successes) when they arrived.
func (h *history) verify(b *bench) error {
	sim, err := newSim()
	if err != nil {
		return err
	}
	chips := make([]int64, 0, len(h.tasks))
	for c := range h.tasks {
		chips = append(chips, c)
	}
	sort.Slice(chips, func(i, j int) bool { return chips[i] < chips[j] })
	checked := make([]int, len(chips))
	bad := make([]int, len(chips))
	errs := make([]error, len(chips))
	obs.RunPool(nil, "", b.workers, len(chips), func(_, i int) {
		checked[i], bad[i], errs[i] = replayChip(sim, chips[i], h.tasks[chips[i]])
	})
	nChecked, nBad := 0, 0
	for i := range chips {
		if errs[i] != nil {
			return errs[i]
		}
		nChecked += checked[i]
		nBad += bad[i]
	}
	fmt.Printf("# oracle chips=%d results=%d mismatched=%d\n", len(chips), nChecked, nBad)
	b.account(0, int64(nBad), fmt.Sprintf("%d served payloads differ from the in-process replay", nBad))
	return nil
}

// replayChip recomputes one chip's served results in execution order and
// returns how many it checked and how many differed.
func replayChip(sim *core.Simulator, chip int64, tasks []servedTask) (checked, bad int, err error) {
	h, err := sim.AcquireChip(chip)
	if err != nil {
		return 0, 0, err
	}
	defer sim.ReleaseChip(h)
	type viewKey struct {
		worker int
		env    string
	}
	views := make(map[viewKey]*adapt.Core)
	type group struct {
		app   string
		phase int
	}
	for _, t := range tasks {
		if t.mode == fleet.ModeBaseline {
			for _, r := range t.results {
				checked++
				if *r.Run != (fleet.RunPayload{FRel: h.FVar()}) {
					bad++
				}
			}
			continue
		}
		if t.mode != fleet.ModeExh {
			return 0, 0, fmt.Errorf("oracle: mode %q not replayed", t.mode)
		}
		vk := viewKey{t.worker, t.env}
		cpu := views[vk]
		if cpu == nil {
			env, err := core.ParseEnvironment(t.env)
			if err != nil {
				return 0, 0, err
			}
			if cpu, err = sim.HandleCore(h, env); err != nil {
				return 0, 0, err
			}
			views[vk] = cpu
		}
		solved := make(map[group]fleet.RunPayload)
		for _, r := range t.results {
			g := group{r.App, -1}
			if r.Phase != nil {
				g.phase = *r.Phase
			}
			want, ok := solved[g]
			if !ok {
				app, err := workload.ByName(r.App)
				if err != nil {
					return 0, 0, err
				}
				run, err := sim.UnitAppRun(chip, cpu, core.ExhDyn, adapt.Exhaustive{}, core.FleetUnit{App: app, Phase: g.phase})
				if err != nil {
					return 0, 0, err
				}
				want = fleet.RunPayload{FRel: run.FRel, Perf: run.Perf, PowerW: run.PowerW, PE: run.PE}
				solved[g] = want
			}
			checked++
			if *r.Run != want {
				bad++
			}
		}
	}
	return checked, bad, nil
}
