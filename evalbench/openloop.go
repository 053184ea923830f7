package main

import "time"

// clock is the open loop's time source; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time        { return time.Now() }
func (realClock) Sleep(d time.Duration) { time.Sleep(d) }

// timing is one open-loop request's schedule and outcome.
type timing struct {
	Due, Sent, Done time.Time
}

// Latency counts from the due time, so a request held back by a slow
// predecessor is charged for the wait.
func (t timing) Latency() time.Duration { return t.Done.Sub(t.Due) }

// Late is how long after its due time the request went out.
func (t timing) Late() time.Duration { return t.Sent.Sub(t.Due) }

// openLoop drives one client of an open loop: request j is due at
// start + offset + j·period, for every due time inside the window. A
// request goes out at its due time or, when the client's previous
// request is still outstanding, the moment that one completes — no
// request is ever skipped or dropped, and no tick is lost, so a stall
// shows as lateness on every request it delays. send performs request j
// synchronously. A period of 0 makes it a closed loop: every request is
// due at start + offset and goes out when its predecessor completes,
// until the window is spent.
func openLoop(clk clock, start time.Time, offset, period, window time.Duration, send func(j int, due time.Time)) []timing {
	var out []timing
	for j := 0; ; j++ {
		due := start.Add(offset + time.Duration(j)*period)
		if due.Sub(start) >= window || (period == 0 && clk.Now().Sub(start) >= window) {
			return out
		}
		if now := clk.Now(); now.Before(due) {
			clk.Sleep(due.Sub(now))
		}
		t := timing{Due: due, Sent: clk.Now()}
		send(j, due)
		t.Done = clk.Now()
		out = append(out, t)
	}
}
