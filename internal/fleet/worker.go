package fleet

import (
	"time"

	"repro/internal/adapt"
	"repro/internal/core"
)

// workerScratch is one worker's reusable task state.
type workerScratch struct {
	groups []group
	units  []core.FleetUnit
}

// worker drains one queue. Each task is a batch of compatible run
// events; distinct (app, phase) groups solve once and fan their result
// out to every event in the group.
func (f *Fleet) worker(w int) {
	defer f.wg.Done()
	sc := &workerScratch{}
	for t := range f.queues[w] {
		sched := time.Since(t.enq)
		t0 := f.mon.TaskStart()
		f.runTask(w, t, sc, sched)
		f.mon.TaskDone(t0)
	}
}

// group is one distinct (app, phase) solve within a task.
type group struct {
	key  groupKey
	refs []int // indices into task.refs

	payload *RunPayload // shared by every ref's Result; nil on error
	errMsg  string
	hit     bool
}

// runTask executes one unit batch, finishes every referenced batch
// slot, and recycles the task.
func (f *Fleet) runTask(w int, t *unitTask, sc *workerScratch, sched time.Duration) {
	// Group events: duplicate (app, phase) pairs share one solve — the
	// bounded batching that makes repeated phase changes on a hot chip
	// nearly free. Tasks are small (MaxBatch), so group lookup is a
	// linear scan over the reused scratch slice, not a fresh map.
	sc.groups = sc.groups[:0]
	for i := range t.refs {
		k := keyOf(t.refs[i].ev)
		gi := -1
		for j := range sc.groups {
			if sc.groups[j].key == k {
				gi = j
				break
			}
		}
		if gi < 0 {
			if n := len(sc.groups); n < cap(sc.groups) {
				sc.groups = sc.groups[:n+1]
			} else {
				sc.groups = append(sc.groups, group{})
			}
			gi = len(sc.groups) - 1
			g := &sc.groups[gi]
			g.key = k
			g.refs = g.refs[:0]
			g.payload = nil
			g.errMsg = ""
			g.hit = false
		}
		sc.groups[gi].refs = append(sc.groups[gi].refs, i)
	}

	f.solveGroups(w, t, sc)

	total := time.Since(t.enq)
	for gi := range sc.groups {
		g := &sc.groups[gi]
		for _, i := range g.refs {
			ref := &t.refs[i]
			res := Result{
				Seq: ref.seq, At: ref.ev.At, Kind: ref.ev.Kind,
				Class: ref.ev.Class, Chip: ref.ev.Chip, Env: ref.ev.Env,
				Mode: ref.ev.Mode, App: ref.ev.App, Phase: ref.ev.Phase,
				CacheHit: g.hit, Batched: len(g.refs), Worker: w,
				SchedMs: ms(sched), TotalMs: ms(total),
			}
			if g.errMsg != "" {
				res.Status = StatusError
				res.Err = g.errMsg
				ref.cls.errors.Add(1)
			} else {
				res.Status = StatusOK
				res.Run = g.payload
				ref.cls.ok.Add(1)
				ref.cls.served.Add(1)
			}
			f.stats.observeRun(ref.cls, w, sched, total)
			ref.b.finish(ref.pos, res)
		}
	}
	entry := t.entry
	n := len(t.refs)
	t.release()
	for ; n > 0; n-- {
		entry.units.Done()
	}
}

// solveGroups fills each scratch group's payload (or error message). The
// expensive core build happens once per chip per environment across the
// whole pool; worker w solves on its own cheap view of it (shared
// immutable models and PE store, private memos and scratch), so solves
// never contend.
func (f *Fleet) solveGroups(w int, t *unitTask, sc *workerScratch) {
	groups := sc.groups
	handle, err := t.entry.ensure(f.sim)
	if err != nil {
		for gi := range groups {
			groups[gi].errMsg = err.Error()
		}
		return
	}
	if t.mode == ModeBaseline {
		for gi := range groups {
			groups[gi].payload = &RunPayload{FRel: handle.FVar()}
		}
		return
	}
	// Validated at ingest: env parses and is adaptive, mode is known,
	// apps and phases resolve.
	env, _ := core.ParseEnvironment(t.env)
	mode, _ := core.ParseMode(t.mode)
	view := &t.entry.views[w][env]
	cpu := *view
	if cpu == nil {
		base, cerr := t.entry.baseCore(f.sim, env)
		if cerr != nil {
			for gi := range groups {
				groups[gi].errMsg = cerr.Error()
			}
			return
		}
		cpu = base.WorkerView()
		*view = cpu
	}
	var solver adapt.Solver
	solverFP := ""
	switch mode {
	case core.FuzzyDyn:
		var serr error
		if solver, solverFP, serr = f.sim.HandleSolver(handle, cpu, f.cfg.Training); serr != nil {
			for gi := range groups {
				groups[gi].errMsg = serr.Error()
			}
			return
		}
	case core.ExhDyn:
		solver, solverFP = adapt.Exhaustive{}, "exh"
	}
	sc.units = sc.units[:0]
	for gi := range groups {
		g := &groups[gi]
		app := f.apps[g.key.app]
		unit := core.FleetUnit{App: app, Phase: g.key.phase}
		if mode == core.Static {
			pt, perr := f.sim.HandleStaticPoint(handle, cpu, app.Class, f.cfg.Apps)
			if perr != nil {
				g.errMsg = perr.Error()
			} else {
				unit.Static = &pt
			}
		}
		sc.units = append(sc.units, unit)
	}
	// One indexed pass tells which units replay from the artifact store;
	// the solve below then only pays the adaptation loop for the rest.
	hits := f.sim.PeekAppRuns(handle.Seed(), cpu, mode, solverFP, sc.units)
	for gi := range groups {
		g := &groups[gi]
		if g.errMsg != "" {
			continue
		}
		g.hit = hits[gi]
		if g.hit {
			f.stats.cacheHits.Add(1)
		} else {
			f.stats.cacheMisses.Add(1)
		}
		run, rerr := f.sim.UnitAppRun(handle.Seed(), cpu, mode, solver, sc.units[gi])
		if rerr != nil {
			g.errMsg = rerr.Error()
			continue
		}
		g.payload = &RunPayload{FRel: run.FRel, Perf: run.Perf, PowerW: run.PowerW, PE: run.PE}
	}
}
