package main

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// testFleet starts a small fleet with a registry attached, closed when
// the test ends.
func testFleet(t *testing.T) (*fleet.Fleet, *obs.Registry) {
	t.Helper()
	opts := core.DefaultOptions()
	opts.TraceLen = 6000
	sim, err := core.NewSimulator(opts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	sim.SetObs(reg)
	fl, err := fleet.New(sim, fleet.Config{Workers: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fl.Close)
	return fl, reg
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
	blob, err := json.Marshal(batchRequest{Events: events})
	if err != nil {
		t.Fatal(err)
	}
	return string(blob), len(events)
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

func TestBatchRejectsBadBodies(t *testing.T) {
	fl, reg := testFleet(t)
	for name, body := range map[string]string{
		"malformed":     `{"events":[`,
		"unknown field": `{"events":[],"priority":1}`,
	} {
		if rec := postBatch(context.Background(), fl, reg, body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s body: status %d, want %d", name, rec.Code, http.StatusBadRequest)
		}
	}
}

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
