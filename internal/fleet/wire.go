package fleet

import (
	"bytes"
	"encoding/json"
	"strconv"
	"unicode/utf8"
)

// AppendJSON appends the result's JSON object (no trailing newline) to
// buf and returns the extended slice. The output is byte-identical to
// encoding/json.Marshal for any Result with finite float fields: same
// struct field order, same omitempty behavior, the same HTML-safe
// string escaping (<, >, & as \u00XX), and the same float formatting.
// It exists for the serving hot path: streaming one NDJSON line per
// event through encoding/json costs a reflection walk and an
// intermediate allocation per result, where AppendJSON costs neither.
func (r *Result) AppendJSON(buf []byte) []byte {
	b := append(buf, `{"seq":`...)
	b = strconv.AppendInt(b, r.Seq, 10)
	b = append(b, `,"at":`...)
	b = strconv.AppendInt(b, r.At, 10)
	b = append(b, `,"kind":`...)
	b = appendJSONString(b, r.Kind)
	if r.Class != "" {
		b = append(b, `,"class":`...)
		b = appendJSONString(b, r.Class)
	}
	b = append(b, `,"chip":`...)
	b = strconv.AppendInt(b, r.Chip, 10)
	if r.Env != "" {
		b = append(b, `,"env":`...)
		b = appendJSONString(b, r.Env)
	}
	if r.Mode != "" {
		b = append(b, `,"mode":`...)
		b = appendJSONString(b, r.Mode)
	}
	if r.App != "" {
		b = append(b, `,"app":`...)
		b = appendJSONString(b, r.App)
	}
	if r.Phase != nil {
		b = append(b, `,"phase":`...)
		b = strconv.AppendInt(b, int64(*r.Phase), 10)
	}
	b = append(b, `,"status":`...)
	b = appendJSONString(b, r.Status)
	if r.Err != "" {
		b = append(b, `,"err":`...)
		b = appendJSONString(b, r.Err)
	}
	if r.Run != nil {
		b = append(b, `,"run":{"f_rel":`...)
		b = appendJSONFloat(b, r.Run.FRel)
		b = append(b, `,"perf":`...)
		b = appendJSONFloat(b, r.Run.Perf)
		b = append(b, `,"power_w":`...)
		b = appendJSONFloat(b, r.Run.PowerW)
		b = append(b, `,"pe":`...)
		b = appendJSONFloat(b, r.Run.PE)
		b = append(b, '}')
	}
	if r.CacheHit {
		b = append(b, `,"cache_hit":true`...)
	}
	if r.Batched != 0 {
		b = append(b, `,"batched":`...)
		b = strconv.AppendInt(b, int64(r.Batched), 10)
	}
	if r.Worker != 0 {
		b = append(b, `,"worker":`...)
		b = strconv.AppendInt(b, int64(r.Worker), 10)
	}
	if r.SchedMs != 0 {
		b = append(b, `,"sched_ms":`...)
		b = appendJSONFloat(b, r.SchedMs)
	}
	if r.TotalMs != 0 {
		b = append(b, `,"total_ms":`...)
		b = appendJSONFloat(b, r.TotalMs)
	}
	return append(b, '}')
}

// appendJSONFloat matches encoding/json's float64 formatting: shortest
// round-trip representation, 'f' form except for very small or very
// large magnitudes, which use 'e' form with the exponent's leading zero
// stripped. NaN and infinities (which encoding/json rejects outright)
// must not reach the wire; simulation outputs are finite.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string with encoding/json's
// default (HTML-safe) escaping: quotes, backslashes, control
// characters, <, >, &, U+2028/U+2029, and invalid UTF-8 as U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				// Control characters and the HTML-sensitive trio.
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// DecodeBatch decodes a POST /v1/batch body, {"events":[...]}, into its
// events, exactly as encoding/json's Decoder with DisallowUnknownFields
// decodes it into a struct with one Events []Event field: the same
// accept/reject decision, the same events and the same error text.
//
// The body every in-repo client sends, json.Marshal of the request,
// decodes in one pass: exact-case field names in any order, each at most
// once; JSON integers in range for their field; printable-ASCII strings
// without escapes; whitespace anywhere. Each event string is allocated
// once per distinct value in the batch, and one []int backs every Phase
// pointer. Any other bytes — a case-variant key, a null, an escape, a
// duplicate field, an error — go unchanged to encoding/json.
func DecodeBatch(body []byte) ([]Event, error) {
	if events, ok := decodeCanonical(body); ok {
		return events, nil
	}
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

var (
	kindField  = []byte(`"kind"`)
	phaseField = []byte(`"phase"`)
)

// decodeCanonical is DecodeBatch's one-pass path; ok is false when body
// is outside the form it takes, whether or not encoding/json accepts it.
func decodeCanonical(body []byte) (events []Event, ok bool) {
	s := batchScanner{b: body}
	if !s.next('{') || !s.name("events") || !s.next(':') || !s.next('[') {
		return nil, false
	}
	// Every event json.Marshal writes has a kind, and an accepted phase
	// is the literal key "phase", so these counts size both slices: no
	// append below moves a Phase target. Neither can exceed a sixth of
	// the body.
	events = make([]Event, 0, bytes.Count(body, kindField))
	phases := make([]int, 0, bytes.Count(body, phaseField))
	if !s.next(']') {
		for {
			ev, ok := s.event(&phases)
			if !ok {
				return nil, false
			}
			events = append(events, ev)
			if s.next(']') {
				break
			}
			if !s.next(',') {
				return nil, false
			}
		}
	}
	if !s.next('}') {
		return nil, false
	}
	s.space()
	return events, s.i == len(s.b)
}

// batchScanner walks a batch body for decodeCanonical.
type batchScanner struct {
	b []byte
	i int
	// strs interns the batch's event strings beyond the kind and mode
	// constants; once full, further distinct values allocate each time.
	strs [16]string
	n    int
}

func (s *batchScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace.
func (s *batchScanner) next(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents, aliasing the body.
func (s *batchScanner) str() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	for j := s.i; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i:j]
			s.i = j + 1
			return v, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// name consumes the object key want.
func (s *batchScanner) name(want string) bool {
	v, ok := s.str()
	return ok && string(v) == want
}

// text consumes a string field value, interned.
func (s *batchScanner) text() (string, bool) {
	v, ok := s.str()
	if !ok {
		return "", false
	}
	switch string(v) {
	case "":
		return "", true
	case KindRun:
		return KindRun, true
	case KindJoin:
		return KindJoin, true
	case KindLeave:
		return KindLeave, true
	case ModeExh:
		return ModeExh, true
	case ModeBaseline:
		return ModeBaseline, true
	case ModeFuzzy:
		return ModeFuzzy, true
	case ModeStatic:
		return ModeStatic, true
	}
	for _, have := range s.strs[:s.n] {
		if have == string(v) {
			return have, true
		}
	}
	str := string(v)
	if s.n < len(s.strs) {
		s.strs[s.n] = str
		s.n++
	}
	return str, true
}

// integer consumes a JSON integer (no fraction or exponent) and returns
// it when it fits in an int64.
func (s *batchScanner) integer() (int64, bool) {
	s.space()
	j := s.i
	neg := j < len(s.b) && s.b[j] == '-'
	if neg {
		j++
	}
	start := j
	var u uint64
	for ; j < len(s.b) && s.b[j] >= '0' && s.b[j] <= '9'; j++ {
		if j-start == 19 { // 19 digits always fit a uint64; 20 may not
			return 0, false
		}
		u = u*10 + uint64(s.b[j]-'0')
	}
	digits := j - start
	if digits == 0 || (digits > 1 && s.b[start] == '0') {
		return 0, false
	}
	switch {
	case neg && u <= 1<<63:
		s.i = j
		return int64(-u), true
	case !neg && u < 1<<63:
		s.i = j
		return int64(u), true
	}
	return 0, false
}

// Event fields, one bit each, for the at-most-once check.
const (
	fieldAt = 1 << iota
	fieldKind
	fieldClass
	fieldChip
	fieldEnv
	fieldMode
	fieldApp
	fieldPhase
)

// event consumes one event object, appending its phase, if any, to
// *phases and pointing the event's Phase at it. The caller sized
// *phases so that the append never moves it.
func (s *batchScanner) event(phases *[]int) (ev Event, ok bool) {
	if !s.next('{') {
		return ev, false
	}
	if s.next('}') {
		return ev, true
	}
	seen := 0
	for {
		key, ok := s.str()
		if !ok || !s.next(':') {
			return ev, false
		}
		var field int
		switch string(key) {
		case "at":
			field = fieldAt
			ev.At, ok = s.integer()
		case "kind":
			field = fieldKind
			ev.Kind, ok = s.text()
		case "class":
			field = fieldClass
			ev.Class, ok = s.text()
		case "chip":
			field = fieldChip
			ev.Chip, ok = s.integer()
		case "env":
			field = fieldEnv
			ev.Env, ok = s.text()
		case "mode":
			field = fieldMode
			ev.Mode, ok = s.text()
		case "app":
			field = fieldApp
			ev.App, ok = s.text()
		case "phase":
			field = fieldPhase
			var v int64
			v, ok = s.integer()
			ph := *phases
			if ok && int64(int(v)) == v && len(ph) < cap(ph) {
				ph = append(ph, int(v))
				*phases = ph
				ev.Phase = &ph[len(ph)-1]
			} else {
				ok = false
			}
		default:
			return ev, false
		}
		if !ok || seen&field != 0 {
			return ev, false
		}
		seen |= field
		if s.next('}') {
			return ev, true
		}
		if !s.next(',') {
			return ev, false
		}
	}
}
