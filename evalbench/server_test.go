package main

import (
	"errors"
	"testing"
	"time"

	"repro/internal/fleet"
)

func phase(p int) *int { return &p }

// tally's error accounting: every event of a batch is attempted; an
// event fails on a transport error, a missing or non-echoing line, a
// non-ok status, an ok run without a payload, or a failed check.
func TestTallyErrorAccounting(t *testing.T) {
	events := []fleet.Event{
		{Kind: fleet.KindJoin, Chip: 1},
		{Kind: fleet.KindRun, Chip: 1, Mode: fleet.ModeExh, Env: "TS", App: "gcc", Phase: phase(0)},
		{Kind: fleet.KindRun, Chip: 1, Mode: fleet.ModeBaseline},
	}
	echo := func(i int, status string, run *fleet.RunPayload) fleet.Result {
		ev := events[i]
		return fleet.Result{Kind: ev.Kind, Chip: ev.Chip, Env: ev.Env, Mode: ev.Mode, App: ev.App, Phase: ev.Phase, Status: status, Run: run}
	}
	pay := &fleet.RunPayload{FRel: 1}
	allOK := []fleet.Result{echo(0, fleet.StatusOK, nil), echo(1, fleet.StatusOK, pay), echo(2, fleet.StatusOK, pay)}
	wrongPhase := echo(1, fleet.StatusOK, pay)
	wrongPhase.Phase = phase(1)
	for _, c := range []struct {
		name       string
		out        batchOut
		check      func(fleet.Result) string
		ok, failed int
	}{
		{"all ok", batchOut{results: allOK}, nil, 3, 0},
		{"transport failure", batchOut{err: errors.New("connection reset")}, nil, 0, 3},
		{"stream cut after one line", batchOut{results: allOK[:1], err: errors.New("EOF")}, nil, 1, 2},
		{"missing lines", batchOut{results: allOK[:2]}, nil, 2, 1},
		{"error status", batchOut{results: []fleet.Result{allOK[0], echo(1, fleet.StatusError, nil), allOK[2]}}, nil, 2, 1},
		{"rejected", batchOut{results: []fleet.Result{allOK[0], allOK[1], echo(2, fleet.StatusRejected, nil)}}, nil, 2, 1},
		{"ok without payload", batchOut{results: []fleet.Result{allOK[0], echo(1, fleet.StatusOK, nil), allOK[2]}}, nil, 2, 1},
		{"not an echo", batchOut{results: []fleet.Result{allOK[0], wrongPhase, allOK[2]}}, nil, 2, 1},
		{"oracle mismatch", batchOut{results: allOK}, func(r fleet.Result) string {
			if r.Mode == fleet.ModeExh {
				return "differs"
			}
			return ""
		}, 2, 1},
		{"extra lines ignored", batchOut{results: append(append([]fleet.Result(nil), allOK...), allOK[0])}, nil, 3, 0},
	} {
		ok, failed, msg := tally(events, c.out, c.check)
		if ok != c.ok || failed != c.failed {
			t.Errorf("%s: ok=%d failed=%d, want %d/%d", c.name, ok, failed, c.ok, c.failed)
		}
		if (failed > 0) != (msg != "") {
			t.Errorf("%s: failure message %q with %d failed", c.name, msg, failed)
		}
	}
}

// fakeClock advances only when the loop sleeps or a request is served.
type fakeClock struct{ now time.Time }

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d) }

// Open-loop latency counts from the due time: a request stuck behind a
// slow one is charged for the wait, nothing is skipped, and every
// request inside the window is sent.
func TestOpenLoopDueTimeLatency(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	service := []time.Duration{5 * ms, 25 * ms, 5 * ms, 5 * ms, 1 * ms}
	var sent []int
	got := openLoop(clk, start, 2*ms, 10*ms, 42*ms, func(j int, due time.Time) {
		if want := start.Add(2*ms + time.Duration(j)*10*ms); !due.Equal(want) {
			t.Errorf("request %d due %v, want %v", j, due.Sub(start), want.Sub(start))
		}
		sent = append(sent, j)
		clk.Sleep(service[j])
	})
	// Due at 2, 12, 22, 32 (42 is outside the window). Request 1 runs
	// 12→37, so 2 goes out at 37 (15 late) and 3 at 42 (10 late).
	want := []struct{ late, lat time.Duration }{
		{0, 5 * ms}, {0, 25 * ms}, {15 * ms, 20 * ms}, {10 * ms, 15 * ms},
	}
	if len(got) != len(want) || len(sent) != len(want) {
		t.Fatalf("sent %d requests (%v), want %d", len(got), sent, len(want))
	}
	for j, w := range want {
		if got[j].Late() != w.late || got[j].Latency() != w.lat {
			t.Errorf("request %d: late %v latency %v, want %v %v", j, got[j].Late(), got[j].Latency(), w.late, w.lat)
		}
	}
}

// Period 0 is a closed loop: requests go out back to back until the
// window is spent, and the one that starts inside the window finishes.
func TestOpenLoopPeriodZeroIsClosed(t *testing.T) {
	ms := time.Millisecond
	clk := &fakeClock{now: time.Unix(1000, 0)}
	start := clk.now
	got := openLoop(clk, start, 0, 0, 20*ms, func(int, time.Time) { clk.Sleep(6 * ms) })
	// Sent at 0, 6, 12, 18; the fifth would start at 24, past the window.
	if len(got) != 4 {
		t.Fatalf("sent %d requests, want 4", len(got))
	}
	for j, tm := range got {
		if want := time.Duration(j) * 6 * ms; tm.Late() != want {
			t.Errorf("request %d sent %v after start, want %v", j, tm.Late(), want)
		}
	}
}

// Cheap set-ups are batched to at least setupBatchS of wall time and
// sampled until about setupTotalS is spent; expensive ones are timed
// singly, three times.
func TestSetupPlan(t *testing.T) {
	for _, c := range []struct {
		wall           float64
		batch, samples int
	}{
		{0, 1, 3},
		{2.5, 1, 3},
		{setupBatchS, 1, 3},
		{0.006, 34, 4},
		{0.03, 7, 4},
		{0.15, 2, 3},
	} {
		batch, samples := setupPlan(c.wall)
		if batch != c.batch || samples != c.samples {
			t.Errorf("setupPlan(%v) = %d, %d; want %d, %d", c.wall, batch, samples, c.batch, c.samples)
		}
		if batch > 1 && float64(batch)*c.wall < setupBatchS {
			t.Errorf("setupPlan(%v): a batch of %d covers less than %vs", c.wall, batch, setupBatchS)
		}
	}
}
