package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
)

// TestAppendJSONMatchesEncodingJSON pins the wire encoder to
// encoding/json.Marshal byte-for-byte: clients decode with the standard
// library, so the hand-rolled fast path must not diverge on escaping,
// float formatting, omitempty, or field order.
func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	cases := []Result{
		{},
		{Seq: 1, At: 5, Kind: KindJoin, Chip: 42, Status: StatusOK},
		{Seq: -3, At: -1, Kind: KindLeave, Class: "bulk", Chip: -7,
			Status: StatusError, Err: `chip -7 not joined`},
		{Seq: 9, Kind: KindRun, Class: "interactive", Chip: 1,
			Env: "TS+ASV+Q+FU", Mode: ModeFuzzy, App: "gcc", Phase: intp(0),
			Status: StatusOK,
			Run:    &RunPayload{FRel: 1.1375, Perf: 0.98, PowerW: 14.2, PE: 0.000125}},
		{Seq: 10, Kind: KindRun, Chip: 2, Mode: ModeBaseline, Status: StatusOK,
			Run: &RunPayload{FRel: 0.7400000000000001}},
		// Diagnostics present (the serving path always carries them).
		{Seq: 11, Kind: KindRun, Chip: 3, App: "swim", Phase: intp(2),
			Status: StatusOK, Run: &RunPayload{FRel: 1, Perf: 1, PowerW: 1, PE: 1},
			CacheHit: true, Batched: 4, Worker: 7, SchedMs: 0.125, TotalMs: 3.5},
		// Float edge cases: 'e' form below 1e-6 and at/above 1e21,
		// negative values, exact zero alongside nonzero siblings.
		{Seq: 12, Kind: KindRun, Chip: 4, Status: StatusOK,
			Run: &RunPayload{FRel: 9.87e-7, Perf: -2.5e21, PowerW: 1e-9, PE: 0}},
		{Seq: 13, Kind: KindRun, Chip: 5, Status: StatusOK,
			Run:     &RunPayload{FRel: 1e21, Perf: 1e-6, PowerW: -0.0001, PE: 123456789.5},
			SchedMs: 4.9e-7},
		// String escaping: quotes, backslashes, control characters, the
		// HTML trio, U+2028/U+2029, multibyte runes, invalid UTF-8.
		{Seq: 14, Kind: KindRun, Chip: 6, Status: StatusError,
			Err: "a\"b\\c\nd\re\tf\x01g<h>i&j"},
		{Seq: 15, Kind: KindRun, Chip: 7, Status: StatusError,
			Err: "line\u2028para\u2029日本語"},
		{Seq: 16, Kind: KindRun, Chip: 8, Status: StatusError,
			Err: "bad\xffutf8"},
	}
	for _, res := range cases {
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", res, err)
		}
		got := res.AppendJSON(nil)
		if string(got) != string(want) {
			t.Errorf("AppendJSON mismatch:\n got  %s\n want %s", got, want)
		}
	}
}

// TestAppendJSONRandomized cross-checks a seeded stream of synthetic
// results against encoding/json.
func TestAppendJSONRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	strs := []string{"", "gcc", "a<b>&", "x\"y\\z", "TS+ASV", "日本", "\u2028", "c\x00d"}
	floats := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return rng.NormFloat64()
		case 2:
			return rng.Float64() * 1e-7
		case 3:
			return rng.Float64() * 1e22
		default:
			return -rng.Float64() * 100
		}
	}
	for i := 0; i < 2000; i++ {
		res := Result{
			Seq: rng.Int63n(1e9) - 5, At: rng.Int63n(100) - 50,
			Kind: strs[rng.Intn(len(strs))], Class: strs[rng.Intn(len(strs))],
			Chip: rng.Int63n(1000) - 500, Env: strs[rng.Intn(len(strs))],
			Mode: strs[rng.Intn(len(strs))], App: strs[rng.Intn(len(strs))],
			Status: strs[rng.Intn(len(strs))], Err: strs[rng.Intn(len(strs))],
			Batched: rng.Intn(3), Worker: rng.Intn(3),
			CacheHit: rng.Intn(2) == 0,
			SchedMs:  floats(), TotalMs: floats(),
		}
		if rng.Intn(2) == 0 {
			res.Phase = intp(rng.Intn(10) - 2)
		}
		if rng.Intn(2) == 0 {
			res.Run = &RunPayload{FRel: floats(), Perf: floats(), PowerW: floats(), PE: floats()}
		}
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("json.Marshal: %v", err)
		}
		if got := res.AppendJSON(nil); string(got) != string(want) {
			t.Fatalf("mismatch at i=%d:\n got  %s\n want %s", i, got, want)
		}
	}
}

// BenchmarkAppendJSON compares the wire encoder against encoding/json
// on a representative OK run result.
func BenchmarkAppendJSON(b *testing.B) {
	res := Result{Seq: 12345, At: 678, Kind: KindRun, Class: "interactive",
		Chip: 42, Env: "TS+ASV+Q+FU", Mode: ModeFuzzy, App: "gcc", Phase: intp(1),
		Status:  StatusOK,
		Run:     &RunPayload{FRel: 1.1375, Perf: 0.982, PowerW: 14.25, PE: 0.000125},
		Batched: 3, Worker: 5, SchedMs: 0.125, TotalMs: 3.5}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = res.AppendJSON(buf[:0])
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(res); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// decodeReference is the decode DecodeBatch must agree with: encoding/json's
// Decoder with DisallowUnknownFields into {"events":[]Event}.
func decodeReference(body []byte) ([]Event, error) {
	var req struct {
		Events []Event `json:"events"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return req.Events, nil
}

// sameEvents compares event lists field by field, Phase by value, and
// tells a nil list from an empty one.
func sameEvents(a, b []Event) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if (x.Phase == nil) != (y.Phase == nil) || (x.Phase != nil && *x.Phase != *y.Phase) {
			return false
		}
		x.Phase, y.Phase = nil, nil
		if x != y {
			return false
		}
	}
	return true
}

// plainEvents reports whether json.Marshal writes every string of events
// unescaped: printable ASCII without quotes, backslashes or <, >, &.
func plainEvents(events []Event) bool {
	for _, ev := range events {
		for _, str := range []string{ev.Kind, ev.Class, ev.Env, ev.Mode, ev.App} {
			for i := 0; i < len(str); i++ {
				if c := str[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
					return false
				}
			}
		}
	}
	return true
}

// FuzzDecodeBatch: for any bytes, DecodeBatch and the encoding/json
// decode evalserve used before it agree on whether there is an error,
// on its text, and on the events. Whenever the reference accepts a
// non-nil list that json.Marshal writes unescaped, its canonical
// re-encoding must take the one-pass path (a nil list encodes as null,
// which goes to encoding/json).
func FuzzDecodeBatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := DecodeBatch(body)
		want, werr := decodeReference(body)
		if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
			t.Fatalf("body %q: error %v, encoding/json %v", body, gerr, werr)
		}
		if !sameEvents(got, want) {
			t.Fatalf("body %q:\n got  %s\n want %s", body, showEvents(got), showEvents(want))
		}
		if werr != nil || want == nil || !plainEvents(want) {
			return
		}
		canon, err := json.Marshal(struct {
			Events []Event `json:"events"`
		}{want})
		if err != nil {
			t.Fatal(err)
		}
		if events, ok := decodeCanonical(canon); !ok || !sameEvents(events, want) {
			t.Fatalf("canonical body %s: one-pass path ok=%v, events %s", canon, ok, showEvents(events))
		}
	})
}

func showEvents(events []Event) string {
	if events == nil {
		return "nil"
	}
	var b bytes.Buffer
	for _, ev := range events {
		ph := "nil"
		if ev.Phase != nil {
			ph = fmt.Sprint(*ev.Phase)
		}
		fmt.Fprintf(&b, "%+v(phase %s) ", ev, ph)
	}
	return fmt.Sprintf("[%s]", b.String())
}

// benchBody is an evalbench serve-replay request: 50 events over 4 chips,
// a third of them baseline probes, the rest exh phase runs.
func benchBody(tb testing.TB) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	apps := []string{"gcc", "crafty", "mcf", "swim", "sixtrack", "art"}
	events := make([]Event, 50)
	for i := range events {
		chip := 20_004 + rng.Int63n(4)
		if rng.Intn(3) == 0 {
			events[i] = Event{At: 41, Kind: KindRun, Class: "client-1", Chip: chip, Mode: ModeBaseline}
			continue
		}
		events[i] = Event{At: 41, Kind: KindRun, Class: "client-1", Chip: chip, Env: "TS+ASV",
			Mode: ModeExh, App: apps[rng.Intn(len(apps))], Phase: intp(rng.Intn(4))}
	}
	body, err := json.Marshal(struct {
		Events []Event `json:"events"`
	}{events})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// TestDecodeBatchOnePass: the bodies in-repo clients send take the
// one-pass path, allocating neither a Phase nor a string per event, and
// the bodies outside its form do not.
func TestDecodeBatchOnePass(t *testing.T) {
	body := benchBody(t)
	events, ok := decodeCanonical(body)
	if !ok {
		t.Fatalf("evalbench-shaped body left the one-pass path: %s", body)
	}
	want, err := decodeReference(body)
	if err != nil || !sameEvents(events, want) {
		t.Fatalf("one-pass decode %s, encoding/json %s (%v)", showEvents(events), showEvents(want), err)
	}
	// Two slices and one string per distinct class, environment and app
	// (kinds and modes are constants): a Phase or a string allocated per
	// event would blow this budget many times over.
	allocs := testing.AllocsPerRun(20, func() { decodeCanonical(body) })
	if distinct := 1 + 1 + 6; allocs > float64(2+distinct) {
		t.Fatalf("one-pass decode of %d events: %.0f allocations, want at most %d", len(events), allocs, 2+distinct)
	}
	for name, body := range map[string]string{
		"case-variant key": `{"events":[{"Kind":"join","chip":1}]}`,
		"null phase":       `{"events":[{"kind":"run","chip":1,"phase":null}]}`,
		"escape":           `{"events":[{"kind":"r\\u0075n","chip":1}]}`,
		"non-ASCII":        `{"events":[{"kind":"run","class":"\u00e9t\u00e9","chip":1}]}`,
		"duplicate":        `{"events":[{"kind":"run","chip":1,"phase":1,"phase":2}]}`,
		"fraction":         `{"events":[{"at":1.0,"kind":"join","chip":1}]}`,
		"exponent":         `{"events":[{"at":1e3,"kind":"join","chip":1}]}`,
		"trailing bytes":   `{"events":[]}x`,
		"null events":      `{"events":null}`,
	} {
		if _, ok := decodeCanonical([]byte(body)); ok {
			t.Errorf("%s body %s took the one-pass path", name, body)
		}
	}
}

// BenchmarkDecodeBatch: the one-pass path against encoding/json on an
// evalbench-shaped 50-event body.
func BenchmarkDecodeBatch(b *testing.B) {
	body := benchBody(b)
	for _, c := range []struct {
		name   string
		decode func([]byte) ([]Event, error)
	}{{"one-pass", DecodeBatch}, {"encoding-json", decodeReference}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := c.decode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
