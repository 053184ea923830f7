package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"repro/internal/fleet"
)

// server is one child evalserve process.
type server struct {
	cmd  *exec.Cmd
	url  string
	log  bytes.Buffer // stdout and stderr; read only after done
	done chan struct{}
	err  error // Wait's result; valid after done
}

// startServer launches evalserve on an OS-assigned loopback port with the
// workload's worker count and profile length, and waits until /healthz
// answers. A port taken between probing and binding is retried.
func (b *bench) startServer(args ...string) (*server, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		s := &server{url: "http://127.0.0.1:" + port, done: make(chan struct{})}
		s.cmd = exec.Command(b.opts.evalserve, append([]string{
			"-addr", "127.0.0.1:" + port,
			"-workers", strconv.Itoa(b.workers),
			"-tracelen", strconv.Itoa(traceLen),
		}, args...)...)
		s.cmd.Stdout, s.cmd.Stderr = &s.log, &s.log
		// The child must not outlive the harness, even if the harness dies.
		s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := s.cmd.Start(); err != nil {
			return nil, fmt.Errorf("start evalserve: %w", err)
		}
		b.children = append(b.children, s)
		go func() {
			s.err = s.cmd.Wait()
			close(s.done)
		}()
		if lastErr = s.waitHealthy(20 * time.Second); lastErr == nil {
			return s, nil
		}
		s.kill()
	}
	return nil, lastErr
}

// freePort asks the OS for a free loopback port.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	_, port, err := net.SplitHostPort(l.Addr().String())
	return port, err
}

func (s *server) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return fmt.Errorf("evalserve exited before healthy: %v\n%s", s.err, s.log.String())
		default:
		}
		if resp, err := client.Get(s.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("evalserve not healthy after %v", timeout)
}

// stop sends SIGTERM and waits for the drain; an exit other than a clean
// 0 — or no exit within the drain bound — is an error.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal evalserve: %w", err)
	}
	select {
	case <-s.done:
	case <-time.After(60 * time.Second):
		s.kill()
		return errors.New("evalserve did not drain within 60s")
	}
	if s.err != nil {
		return fmt.Errorf("evalserve unclean exit: %v\n%s", s.err, s.log.String())
	}
	return nil
}

// kill ends the process without a drain and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.done
}

func (s *server) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// batchOut is one POST /v1/batch exchange.
type batchOut struct {
	results     []fleet.Result
	sent, first time.Time
	last        time.Time
	err         error // transport, HTTP status, or decode failure
}

// post submits one event batch and reads the NDJSON result stream,
// timing the first and last result lines.
func post(client *http.Client, url string, events []fleet.Event) batchOut {
	var out batchOut
	body, err := json.Marshal(struct {
		Events []fleet.Event `json:"events"`
	}{events})
	if err != nil {
		out.err = err
		return out
	}
	out.sent = time.Now()
	resp, err := client.Post(url+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = err
		return out
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		return out
	}
	out.results = make([]fleet.Result, 0, len(events))
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		now := time.Now()
		if out.first.IsZero() {
			out.first = now
		}
		out.last = now
		var r fleet.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			out.err = fmt.Errorf("result line %d: %w", len(out.results)+1, err)
			return out
		}
		out.results = append(out.results, r)
	}
	out.err = sc.Err()
	if out.last.IsZero() {
		out.last = time.Now()
	}
	return out
}

// fetchMetrics reads the server's obs registry. It asks for /v1/stats
// first: the fleet publishes its pool-occupancy gauge on each snapshot.
func (s *server) fetchMetrics(client *http.Client) ([]metricRow, error) {
	if resp, err := client.Get(s.url + "/v1/stats"); err == nil {
		_, _ = io.Copy(io.Discard, resp.Body) // only the side effect matters
		resp.Body.Close()
	}
	resp, err := client.Get(s.url + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var rows []metricRow
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		return nil, fmt.Errorf("decode /v1/metrics: %w", err)
	}
	return rows, nil
}

// tally classifies one batch's outcome per event: an event succeeds when
// its result line arrived, echoes the event, has status ok (with a
// payload, for run events), and passes check (nil = no check; a non-empty
// return describes the failure). A transport failure fails every event
// of the batch; missing lines fail their events; lines beyond the batch
// are ignored. It returns the success and failure counts and the first
// failure's description.
func tally(events []fleet.Event, out batchOut, check func(fleet.Result) string) (ok, failed int, msg string) {
	fail := func(n int, m string) {
		failed += n
		if msg == "" {
			msg = m
		}
	}
	if out.err != nil && len(out.results) == 0 {
		fail(len(events), out.err.Error())
		return ok, failed, msg
	}
	for i, ev := range events {
		if i >= len(out.results) {
			m := "missing result"
			if out.err != nil {
				m += ": " + out.err.Error()
			}
			fail(len(events)-i, m)
			break
		}
		r := out.results[i]
		switch {
		case r.Kind != ev.Kind || r.Chip != ev.Chip || r.App != ev.App || r.Mode != ev.Mode || !samePhase(r.Phase, ev.Phase):
			fail(1, fmt.Sprintf("result %d does not echo its event", i))
		case r.Status != fleet.StatusOK:
			fail(1, fmt.Sprintf("%s chip %d: %s %s", r.Kind, r.Chip, r.Status, r.Err))
		case r.Kind == fleet.KindRun && r.Run == nil:
			fail(1, fmt.Sprintf("run chip %d: ok without a payload", r.Chip))
		case check != nil && check(r) != "":
			fail(1, check(r))
		default:
			ok++
		}
	}
	return ok, failed, msg
}

func samePhase(a, b *int) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}
