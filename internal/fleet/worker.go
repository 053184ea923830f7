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
	// nearly free. Tasks are small (maxBatch), so group lookup is a
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

	f.solveGroups(t, sc)

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
			f.stats.observeRun(ref.cls, sched, total)
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

// solveGroups fills each scratch group's payload (or error message). It
// runs on the chip's owner, which builds the chip's handle once and then
// one core per environment from it (shared immutable models and PE
// store, private memos and scratch). Only the owner touches those cores,
// so a chip's units run on them in ingest order.
//
// A unit this admission of the chip has already answered replays from
// the entry's table, deriving no apprun key, reading no record and
// driving no core. On one chip, (environment, mode, app, phase)
// determines the unit: the app universe is fixed, the fleet trains every
// fuzzy controller with its one TrainOptions and the handle memoizes it
// per configuration, and the handle memoizes static points per (chip,
// configuration, class). A unit read from the store enters the table,
// since a store hit never drives a core. So does a computed unit whose
// core's Evaluate memo is still complete (adapt.Core.MemoComplete):
// solving it again there would hit the memo at every probe, return the
// same result and leave the core's thermal warm start untouched. Either
// way a replay leaves every core where solving the unit again would, so
// the table changes no result, with a store or without one.
func (f *Fleet) solveGroups(t *unitTask, sc *workerScratch) {
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
	pending := 0
	for gi := range groups {
		g := &groups[gi]
		p, ok := t.entry.replay[replayKey{env, mode, g.key.app, g.key.phase}]
		if !ok {
			pending++
			continue
		}
		g.payload, g.hit = &p, true // a fresh copy per group
		f.stats.cacheHits.Add(1)
	}
	if pending == 0 {
		return
	}
	// From here on, g.hit marks a group the table answered.
	fail := func(msg string) {
		for gi := range groups {
			if !groups[gi].hit {
				groups[gi].errMsg = msg
			}
		}
	}
	cpu := t.entry.cores[env]
	if cpu == nil {
		var cerr error
		if cpu, cerr = f.sim.HandleCore(handle, env); cerr != nil {
			fail(cerr.Error())
			return
		}
		t.entry.cores[env] = cpu
	}
	var solver adapt.Solver
	switch mode {
	case core.FuzzyDyn:
		var serr error
		if solver, _, serr = f.sim.HandleSolver(handle, cpu, f.cfg.Training); serr != nil {
			fail(serr.Error())
			return
		}
	case core.ExhDyn:
		solver = adapt.Exhaustive{}
	}
	// Static points are chosen for every group before any unit runs:
	// choosing one drives cpu, whose state carries into the runs. A
	// replayed group's point is already memoized on the handle.
	sc.units = sc.units[:0]
	for gi := range groups {
		g := &groups[gi]
		app := f.apps[g.key.app]
		unit := core.FleetUnit{App: app, Phase: g.key.phase}
		if mode == core.Static && !g.hit {
			pt, perr := f.sim.HandleStaticPoint(handle, cpu, app.Class, f.cfg.apps)
			if perr != nil {
				g.errMsg = perr.Error()
			} else {
				unit.Static = &pt
			}
		}
		sc.units = append(sc.units, unit)
	}
	for gi := range groups {
		g := &groups[gi]
		if g.hit || g.errMsg != "" {
			continue
		}
		// The read that serves the unit tells whether it replayed: a
		// damaged record rebuilds, and so counts as a miss.
		u := sc.units[gi]
		run, rerr := f.sim.UnitAppRun(handle.Seed(), cpu, mode, solver, u)
		g.hit = rerr == nil && run.CacheHit
		if g.hit {
			f.stats.cacheHits.Add(1)
		} else {
			f.stats.cacheMisses.Add(1)
		}
		if rerr != nil {
			g.errMsg = rerr.Error()
			continue
		}
		g.payload = &RunPayload{FRel: run.FRel, Perf: run.Perf, PowerW: run.PowerW, PE: run.PE}
		if g.hit || cpu.MemoComplete() {
			if t.entry.replay == nil {
				t.entry.replay = make(map[replayKey]RunPayload)
			}
			t.entry.replay[replayKey{env, mode, u.App.Name, u.Phase}] = *g.payload
		}
	}
}
