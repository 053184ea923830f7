package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/workload"
)

// testExamples is the test fleets' fuzzy training budget per
// controller: small, so a fuzzy unit trains in well under a second.
const testExamples = 60

// testSim returns a simulator with the test fleets' options.
func testSim(t *testing.T) *core.Simulator {
	t.Helper()
	opts := core.DefaultOptions()
	opts.TraceLen = 6000
	sim, err := core.NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// testFleet starts a small fleet the way main does, with a registry
// attached, closed when the test ends.
func testFleet(t *testing.T) (*fleet.Fleet, *obs.Registry) {
	t.Helper()
	sim := testSim(t)
	reg := obs.NewRegistry()
	sim.SetObs(reg)
	fl, err := newFleet(sim, fleet.Config{Workers: 2, Obs: reg}, testExamples)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl, reg
}

// TestServesEveryMode: a fleet built as main builds it serves a
// baseline, static, fuzzy and exh unit, and every payload equals the
// offline result bit for bit: the chip's FVar for the baseline, and
// UnitAppRun on a fresh chip handle, trained and chosen as the fleet
// does, for the rest. Each adaptive unit has an environment to itself,
// so it is the first unit its core solves, served and offline alike.
func TestServesEveryMode(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzy training")
	}
	const chip, phase = 31, 0
	app, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	units := []struct {
		mode string
		env  core.Environment
	}{
		{fleet.ModeBaseline, core.TS},
		{fleet.ModeStatic, core.TSASV},
		{fleet.ModeFuzzy, core.TSASVQFU},
		{fleet.ModeExh, core.TSASVABB},
	}
	events := []fleet.Event{{At: 1, Kind: fleet.KindJoin, Chip: chip}}
	for _, u := range units {
		events = append(events, fleet.Event{At: 2, Kind: fleet.KindRun, Chip: chip,
			Env: u.env.String(), Mode: u.mode, App: app.Name, Phase: intp(phase)})
	}
	fl, reg := testFleet(t)
	rec := postBatch(context.Background(), fl, reg, marshalBody(t, events))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var served []fleet.Result
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var r fleet.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Status != fleet.StatusOK || (r.Kind == fleet.KindRun && r.Run == nil) {
			t.Fatalf("seq %d (%s %s): %s %s", r.Seq, r.Kind, r.Mode, r.Status, r.Err)
		}
		served = append(served, r)
	}
	if len(served) != len(events) {
		t.Fatalf("streamed %d results for %d events", len(served), len(events))
	}

	sim := testSim(t)
	h, err := sim.AcquireChip(chip)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.ReleaseChip(h)
	training := adapt.DefaultTrainOptions()
	training.Examples = testExamples
	for i, u := range units {
		want := fleet.RunPayload{FRel: h.FVar()}
		if u.mode != fleet.ModeBaseline {
			cpu, err := sim.HandleCore(h, u.env)
			if err != nil {
				t.Fatal(err)
			}
			mode, err := core.ParseMode(u.mode)
			if err != nil {
				t.Fatal(err)
			}
			unit := core.FleetUnit{App: app, Phase: phase}
			var solver adapt.Solver
			switch mode {
			case core.Static:
				pt, err := sim.HandleStaticPoint(h, cpu, app.Class, workload.Suite())
				if err != nil {
					t.Fatal(err)
				}
				unit.Static = &pt
			case core.FuzzyDyn:
				if solver, _, err = sim.HandleSolver(h, cpu, training); err != nil {
					t.Fatal(err)
				}
			case core.ExhDyn:
				solver = adapt.Exhaustive{}
			}
			run, err := sim.UnitAppRun(chip, cpu, mode, solver, unit)
			if err != nil {
				t.Fatal(err)
			}
			want = fleet.RunPayload{FRel: run.FRel, Perf: run.Perf, PowerW: run.PowerW, PE: run.PE}
		}
		if got := *served[i+1].Run; got != want {
			t.Errorf("%s unit in %v: served %+v, offline %+v", u.mode, u.env, got, want)
		}
	}
}

// baselineBody is a batch request joining two chips and probing each
// twice in baseline mode.
func baselineBody(t *testing.T) (string, int) {
	t.Helper()
	events := []fleet.Event{
		{At: 1, Kind: fleet.KindJoin, Chip: 11},
		{At: 1, Kind: fleet.KindJoin, Chip: 12},
	}
	for i := 0; i < 2; i++ {
		for _, chip := range []int64{11, 12} {
			events = append(events, fleet.Event{At: 2, Kind: fleet.KindRun, Chip: chip, Mode: fleet.ModeBaseline, App: "gcc"})
		}
	}
	return marshalBody(t, events), len(events)
}

// marshalBody renders events as every in-repo client does: json.Marshal
// of {"events":[...]}.
func marshalBody(t *testing.T, events []fleet.Event) string {
	t.Helper()
	blob, err := json.Marshal(struct {
		Events []fleet.Event `json:"events"`
	}{events})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob)
}

func postBatch(ctx context.Context, fl *fleet.Fleet, reg *obs.Registry, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	handleBatch(fl, reg, 64<<10, 25*time.Millisecond)(rec, req)
	return rec
}

func TestBatchRejectsGet(t *testing.T) {
	fl, reg := testFleet(t)
	rec := httptest.NewRecorder()
	handleBatch(fl, reg, 64<<10, 25*time.Millisecond)(rec, httptest.NewRequest(http.MethodGet, "/v1/batch", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/batch: status %d, want %d", rec.Code, http.StatusMethodNotAllowed)
	}
}

// TestBatchRejectsBadBodies: a body encoding/json rejects gets status
// 400 and encoding/json's error text, whichever decode path saw it.
func TestBatchRejectsBadBodies(t *testing.T) {
	fl, reg := testFleet(t)
	for name, c := range map[string]struct{ body, err string }{
		"malformed":           {`{"events":[`, `unexpected EOF`},
		"empty":               {``, `EOF`},
		"unknown field":       {`{"events":[],"priority":1}`, `json: unknown field "priority"`},
		"unknown event field": {`{"events":[{"at":1,"kind":"join","chip":3,"zone":"a"}]}`, `json: unknown field "zone"`},
		"fraction": {`{"events":[{"at":1.5,"kind":"join","chip":3}]}`,
			`json: cannot unmarshal number 1.5 into Go struct field Event.events.at of type int64`},
		"overflow": {`{"events":[{"at":1,"kind":"join","chip":9223372036854775808}]}`,
			`json: cannot unmarshal number 9223372036854775808 into Go struct field Event.events.chip of type int64`},
		"leading zero": {`{"events":[{"at":01}]}`, `invalid character '1' after object key:value pair`},
		"string kind":  {`{"events":[{"kind":7}]}`, `json: cannot unmarshal number into Go struct field Event.events.kind of type string`},
	} {
		rec := postBatch(context.Background(), fl, reg, c.body)
		if want := "bad request: " + c.err + "\n"; rec.Code != http.StatusBadRequest || rec.Body.String() != want {
			t.Errorf("%s body: status %d %q, want %d %q", name, rec.Code, rec.Body, http.StatusBadRequest, want)
		}
	}
}

// TestBatchFallbackMatchesCanonical: bodies the one-pass decoder leaves
// to encoding/json — case-variant keys, a null phase, escaped strings —
// stream the same NDJSON as the canonical body they decode to, timing
// fields aside. Each body goes to a fresh fleet, so sequence numbers and
// owners line up.
func TestBatchFallbackMatchesCanonical(t *testing.T) {
	canonical := marshalBody(t, []fleet.Event{
		{At: 1, Kind: fleet.KindJoin, Class: "a", Chip: 21},
		{At: 2, Kind: fleet.KindRun, Class: "a", Chip: 21, Mode: fleet.ModeBaseline, App: "gcc", Phase: intp(0)},
		{At: 2, Kind: fleet.KindRun, Class: "a", Chip: 21, Mode: fleet.ModeBaseline, App: "gcc"},
	})
	twins := map[string]string{
		"case-variant keys": `{"EVENTS":[{"AT":1,"Kind":"join","Class":"a","CHIP":21},` +
			`{"at":2,"KIND":"run","class":"a","Chip":21,"Mode":"baseline","App":"gcc","Phase":0},` +
			`{"At":2,"kind":"run","Class":"a","chip":21,"mode":"baseline","APP":"gcc"}]}`,
		"null phase": `{"events":[{"at":1,"kind":"join","class":"a","chip":21},` +
			`{"at":2,"kind":"run","class":"a","chip":21,"mode":"baseline","app":"gcc","phase":0},` +
			`{"at":2,"kind":"run","class":"a","chip":21,"mode":"baseline","app":"gcc","phase":null}]}`,
		"escaped strings": `{"events":[{"at":1,"kind":"joi\u006e","class":"\u0061","chip":21},` +
			`{"at":2,"kind":"run","class":"a","chip":21,"mode":"baseline","app":"g\u0063c","phase":0},` +
			`{"at":2,"kind":"r\u0075n","class":"a","chip":21,"mode":"baseline","app":"gcc"}]}`,
	}
	serve := func(body string) []string {
		t.Helper()
		fl, reg := testFleet(t)
		rec := postBatch(context.Background(), fl, reg, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		var lines []string
		sc := bufio.NewScanner(rec.Body)
		for sc.Scan() {
			var r fleet.Result
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatal(err)
			}
			if r.Status != fleet.StatusOK {
				t.Fatalf("seq %d: %s %s", r.Seq, r.Status, r.Err)
			}
			r.SchedMs, r.TotalMs = 0, 0
			lines = append(lines, string(r.AppendJSON(nil)))
		}
		return lines
	}
	want := serve(canonical)
	if len(want) != 3 {
		t.Fatalf("canonical body streamed %d lines, want 3", len(want))
	}
	for name, body := range twins {
		if got := serve(body); strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:\n got  %s\n want %s", name, strings.Join(got, "\n      "), strings.Join(want, "\n      "))
		}
	}
}

func intp(v int) *int { return &v }

// TestBatchStreamsInOrder: a valid batch streams one NDJSON line per
// event, sequence numbers 1..n in submission order.
func TestBatchStreamsInOrder(t *testing.T) {
	fl, reg := testFleet(t)
	body, n := baselineBody(t)
	rec := postBatch(context.Background(), fl, reg, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	var seqs []int64
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var r fleet.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", len(seqs)+1, err)
		}
		if r.Status != fleet.StatusOK {
			t.Fatalf("seq %d: %s %s", r.Seq, r.Status, r.Err)
		}
		seqs = append(seqs, r.Seq)
	}
	if len(seqs) != n {
		t.Fatalf("streamed %d lines for %d events", len(seqs), n)
	}
	for i, s := range seqs {
		if s != int64(i+1) {
			t.Fatalf("line %d has seq %d", i+1, s)
		}
	}
}

func TestBatchAfterCloseIsUnavailable(t *testing.T) {
	fl, reg := testFleet(t)
	fl.Close()
	body, _ := baselineBody(t)
	if rec := postBatch(context.Background(), fl, reg, body); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("batch after Close: status %d, want %d", rec.Code, http.StatusServiceUnavailable)
	}
}

// TestCancelledRequestDropsResults: a client already gone gets nothing
// written, and every result counts in fleet.emit.dropped.
func TestCancelledRequestDropsResults(t *testing.T) {
	fl, reg := testFleet(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, n := baselineBody(t)
	rec := postBatch(ctx, fl, reg, body)
	if got := reg.Counter("fleet.emit.dropped").Value(); got != int64(n) {
		t.Fatalf("fleet.emit.dropped = %d, want %d", got, n)
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("cancelled request received %d bytes", rec.Body.Len())
	}
}

// TestMetricsPublishesOccupancy: /v1/metrics reports current pool
// occupancy on its own, with no /v1/stats call to refresh the gauge.
// A worker adds a task's busy time just after emitting the task's last
// result, so a second batch on the same chips (the same owner workers)
// makes sure the first batch's busy time is in.
func TestMetricsPublishesOccupancy(t *testing.T) {
	fl, reg := testFleet(t)
	body, _ := baselineBody(t)
	if rec := postBatch(context.Background(), fl, reg, body); rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d", rec.Code)
	}
	again := `{"events":[{"at":3,"kind":"run","chip":11,"mode":"baseline","app":"gcc"},` +
		`{"at":3,"kind":"run","chip":12,"mode":"baseline","app":"gcc"}]}`
	if rec := postBatch(context.Background(), fl, reg, again); rec.Code != http.StatusOK {
		t.Fatalf("second batch: status %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	handleMetrics(fl, reg)(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	var rows []metricRow
	if err := json.NewDecoder(rec.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if row.Name == "fleet.pool.occupancy_pct" {
			if row.Value <= 0 {
				t.Fatalf("fleet.pool.occupancy_pct = %v after two served batches, want > 0", row.Value)
			}
			return
		}
	}
	t.Fatal("/v1/metrics has no fleet.pool.occupancy_pct row")
}

// cancelOnFlush is a response writer whose client goes away right after
// the first flush reaches it; it counts the writes that follow.
type cancelOnFlush struct {
	*httptest.ResponseRecorder
	cancel    context.CancelFunc
	cancelled bool
	late      int // Write and WriteHeader calls after the cancel
}

func (w *cancelOnFlush) Write(p []byte) (int, error) {
	if w.cancelled {
		w.late++
	}
	return w.ResponseRecorder.Write(p)
}

func (w *cancelOnFlush) WriteHeader(code int) {
	if w.cancelled {
		w.late++
	}
	w.ResponseRecorder.WriteHeader(code)
}

func (w *cancelOnFlush) Flush() {
	w.ResponseRecorder.Flush()
	w.cancel()
	w.cancelled = true
}

// TestClientGoneMidStream: a client that disconnects after the first
// flushed line of a batch that flushes more than once gets no further
// write, the results it missed count in fleet.emit.dropped, and the
// next request is served in full.
func TestClientGoneMidStream(t *testing.T) {
	fl, reg := testFleet(t)
	body, n := baselineBody(t)
	const flushBytes = 1 // every line fills the watermark: one flush per result
	ctx, cancel := context.WithCancel(context.Background())
	w := &cancelOnFlush{ResponseRecorder: httptest.NewRecorder(), cancel: cancel}
	req := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body)).WithContext(ctx)
	handleBatch(fl, reg, flushBytes, time.Hour)(w, req)
	if !w.cancelled {
		t.Fatal("the batch never flushed")
	}
	if w.late != 0 {
		t.Fatalf("%d writes after the client went away", w.late)
	}
	lines := strings.Count(w.Body.String(), "\n")
	if lines != 1 {
		t.Fatalf("client saw %d lines before it went away, want 1", lines)
	}
	if got := reg.Counter("fleet.emit.dropped").Value(); got != int64(n-lines) {
		t.Fatalf("fleet.emit.dropped = %d, want %d", got, n-lines)
	}

	flushes := reg.Counter("fleet.emit.flushes").Value()
	again := `{"events":[{"at":3,"kind":"run","chip":11,"mode":"baseline","app":"gcc"},` +
		`{"at":3,"kind":"run","chip":12,"mode":"baseline","app":"gcc"}]}`
	req = httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(again))
	rec := httptest.NewRecorder()
	handleBatch(fl, reg, flushBytes, time.Hour)(rec, req)
	if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), `"status":"ok"`) != 2 {
		t.Fatalf("next request: status %d, body %q", rec.Code, rec.Body)
	}
	if got := reg.Counter("fleet.emit.flushes").Value() - flushes; got < 2 {
		t.Fatalf("next request flushed %d times, want one per result", got)
	}
	if got := reg.Counter("fleet.emit.dropped").Value(); got != int64(n-lines) {
		t.Fatalf("next request dropped results: fleet.emit.dropped = %d, want %d", got, n-lines)
	}
}

// TestDrainFinishesBatchInFlight: the drain main runs on SIGTERM lets a
// batch that is already streaming finish. The server listens on a
// loopback port over an artifact store; a cold batch of joins and exh
// units is posted, and the drain starts once the first result line has
// arrived, while the units still run. The response carries one ok line
// per event, Shutdown returns nil, a new connection is refused, and the
// store, reopened, answers every unit of the batch as a hit.
func TestDrainFinishesBatchInFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("cold adaptation units")
	}
	dir := t.TempDir()
	serveOver := func() (*core.Simulator, *artifact.Store) {
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sim := testSim(t)
		sim.SetArtifacts(store)
		return sim, store
	}
	sim, store := serveOver()
	reg := obs.NewRegistry()
	sim.SetObs(reg)
	fl, err := newFleet(sim, fleet.Config{Workers: 2, Obs: reg}, testExamples)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: newMux(fl, reg, 64<<10, time.Millisecond)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	var events []fleet.Event
	units := 0
	for _, chip := range []int64{71, 72} {
		events = append(events, fleet.Event{At: 1, Kind: fleet.KindJoin, Chip: chip})
	}
	for _, chip := range []int64{71, 72} {
		for _, name := range []string{"gcc", "swim", "mcf", "art"} {
			app, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			for ph := range app.Phases {
				events = append(events, fleet.Event{At: 2, Kind: fleet.KindRun, Chip: chip,
					Env: core.TSASV.String(), Mode: fleet.ModeExh, App: name, Phase: intp(ph)})
				units++
			}
		}
	}
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/batch", "application/json",
		strings.NewReader(marshalBody(t, events)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var streamed []fleet.Result
	drained := make(chan error, 1)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var r fleet.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, r)
		if len(streamed) == 1 {
			if snap := fl.Stats(); snap.CacheHits+snap.CacheMisses >= int64(units) {
				t.Fatalf("every unit solved before the first line arrived; nothing was in flight")
			}
			go func() { drained <- drain(context.Background(), srv, fl, store) }()
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream broke after %d lines: %v", len(streamed), err)
	}
	if len(streamed) != len(events) {
		t.Fatalf("streamed %d lines for %d events", len(streamed), len(events))
	}
	for _, r := range streamed {
		if r.Status != fleet.StatusOK || (r.Kind == fleet.KindRun && r.Run == nil) {
			t.Fatalf("seq %d (%s chip %d): %s %s", r.Seq, r.Kind, r.Chip, r.Status, r.Err)
		}
	}
	if err := <-drained; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-served; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	if conn, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("a new connection was accepted after the drain")
	}

	sim, store = serveOver()
	t.Cleanup(store.Close)
	again, err := newFleet(sim, fleet.Config{Workers: 2}, testExamples)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(again.Close)
	i := 0
	if err := again.SubmitBatch(events, func(r fleet.Result) {
		if r.Kind == fleet.KindRun && (r.Status != fleet.StatusOK || !r.CacheHit || *r.Run != *streamed[i].Run) {
			t.Errorf("reopened store, seq %d (chip %d %s phase %d): %s, cache hit %v", r.Seq, r.Chip, r.App, *r.Phase, r.Status, r.CacheHit)
		}
		i++
	}); err != nil {
		t.Fatal(err)
	}
}

// TestParseRates: -rate specs decode per class, a malformed entry or a
// class listed twice is an error, and a rate that parses but is NaN,
// infinite or negative is refused when the fleet starts.
func TestParseRates(t *testing.T) {
	for _, c := range []struct {
		spec string
		want map[string]fleet.Rate
		err  string
	}{
		{spec: ""},
		{spec: "noisy=5:10", want: map[string]fleet.Rate{"noisy": {PerTick: 5, Burst: 10}}},
		{spec: " a=1.5:2 , b=0:0 ,", want: map[string]fleet.Rate{"a": {PerTick: 1.5, Burst: 2}, "b": {}}},
		{spec: "a=1:2,a=3:4", err: "listed twice"},
		{spec: "a=1:2,b=1:1,a=1:2", err: "listed twice"},
		{spec: "a", err: "want class=perTick:burst"},
		{spec: "a=1", err: "want class=perTick:burst"},
		{spec: "a=x:1", err: "invalid syntax"},
		{spec: "a=1:y", err: "invalid syntax"},
	} {
		got, err := parseRates(c.spec)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("parseRates(%q) = %v, %v; want an error containing %q", c.spec, got, err, c.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseRates(%q) = %v, %v; want %v", c.spec, got, err, c.want)
		}
	}
	sim := testSim(t)
	for _, spec := range []string{"bulk=NaN:10", "bulk=Inf:Inf", "bulk=1:-Inf", "bulk=-1:5"} {
		admission, err := parseRates(spec)
		if err != nil {
			t.Fatalf("parseRates(%q): %v", spec, err)
		}
		if fl, err := newFleet(sim, fleet.Config{Workers: 1, Admission: admission}, testExamples); err == nil {
			fl.Close()
			t.Errorf("-rate %s: the fleet started", spec)
		}
	}
}

// TestAdmissionUnderOverload: a server built as main builds it with
// -rate noisy=5:10 takes one batch of 200 noisy run events at one tick
// with 20 unthrottled ones among them. Exactly the bucket's burst of
// noisy events is served and the rest are rejected with the admission
// error; every unthrottled event is served; the stream has one line per
// event, in order; and /v1/stats counts the rejections.
func TestAdmissionUnderOverload(t *testing.T) {
	admission, err := parseRates("noisy=5:10")
	if err != nil {
		t.Fatal(err)
	}
	const burst, noisy, quiet = 10, 200, 20
	sim := testSim(t)
	reg := obs.NewRegistry()
	sim.SetObs(reg)
	fl, err := newFleet(sim, fleet.Config{Workers: 2, Admission: admission, Obs: reg}, testExamples)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	mux := newMux(fl, reg, 64<<10, 25*time.Millisecond)

	events := []fleet.Event{{At: 1, Kind: fleet.KindJoin, Chip: 41}}
	for i := 0; i < noisy+quiet; i++ {
		ev := fleet.Event{At: 2, Kind: fleet.KindRun, Class: "noisy", Chip: 41, Mode: fleet.ModeBaseline, App: "gcc"}
		if i%((noisy+quiet)/quiet) == 0 {
			ev.Class = "quiet"
		}
		events = append(events, ev)
	}
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(marshalBody(t, events))))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	var results []fleet.Result
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var r fleet.Result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", len(results)+1, err)
		}
		results = append(results, r)
	}
	if len(results) != len(events) {
		t.Fatalf("streamed %d lines for %d events", len(results), len(events))
	}
	served := map[string]int{}
	for i, r := range results {
		if r.Seq != int64(i+1) {
			t.Fatalf("line %d has seq %d", i+1, r.Seq)
		}
		switch {
		case r.Status == fleet.StatusOK:
			served[events[i].Class]++
		case events[i].Class == "noisy" && r.Status == fleet.StatusRejected && r.Err == "admission: class rate exceeded":
		default:
			t.Fatalf("seq %d (class %q): %s %q", r.Seq, events[i].Class, r.Status, r.Err)
		}
	}
	if served["noisy"] != burst || served["quiet"] != quiet {
		t.Fatalf("served %d noisy and %d unthrottled events, want %d and %d", served["noisy"], served["quiet"], burst, quiet)
	}

	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	var snap fleet.Snapshot
	if err := json.NewDecoder(rec.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Classes["noisy"]; got.Rejected != noisy-burst || got.OK != burst {
		t.Errorf("/v1/stats noisy class: %d ok, %d rejected; want %d and %d", got.OK, got.Rejected, burst, noisy-burst)
	}
	if got := snap.Classes["quiet"]; got.Rejected != 0 || got.OK != quiet {
		t.Errorf("/v1/stats unthrottled class: %d ok, %d rejected; want %d and 0", got.OK, got.Rejected, quiet)
	}
}
