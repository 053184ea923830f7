package fleet

// Event kinds. A join admits a chip to the fleet, a leave retires it
// (flushing its accumulated PE tables to the artifact store), and a run
// asks for one simulation unit: a phase change or retuning request on an
// admitted chip.
const (
	KindJoin  = "join"
	KindLeave = "leave"
	KindRun   = "run"
)

// Run-event modes. The adaptation modes mirror core.Mode; "baseline"
// reports the chip's worst-case-safe frequency without running an
// adaptation unit (the Figure 10 anchor).
const (
	ModeBaseline = "baseline"
	ModeStatic   = "static"
	ModeFuzzy    = "fuzzy"
	ModeExh      = "exh"
)

// Result statuses.
const (
	// StatusOK: the unit ran (or the join/leave took effect).
	StatusOK = "ok"
	// StatusRejected: admission control dropped the event (class bucket
	// empty at the event's virtual time).
	StatusRejected = "rejected"
	// StatusError: the event was malformed or its unit failed.
	StatusError = "error"
)

// Event is one request-stream entry, as submitted to POST /v1/batch.
type Event struct {
	// At is the event's virtual time in ticks. The fleet clock is the
	// running maximum of submitted At values; admission buckets refill on
	// it. At never affects simulation results.
	At int64 `json:"at"`
	// Kind is join, leave, or run.
	Kind string `json:"kind"`
	// Class is the admission/fairness class (typically a client id).
	// Unconfigured classes are unthrottled.
	Class string `json:"class,omitempty"`
	// Chip is the chip's variation-map generator seed.
	Chip int64 `json:"chip"`

	// Env is the Table 1 environment name ("TS+ASV+Q+FU", ...) for
	// adaptation runs; ignored for baseline runs and join/leave.
	Env string `json:"env,omitempty"`
	// Mode is baseline, static, fuzzy, or exh (run events only).
	Mode string `json:"mode,omitempty"`
	// App names the application (run events only).
	App string `json:"app,omitempty"`
	// Phase, when set, runs the single phase at that position in the
	// app's phase list; nil runs the whole phase-weighted app.
	Phase *int `json:"phase,omitempty"`
}

// RunPayload carries a unit's simulation results. Baseline runs fill
// only FRel (the chip's worst-case-safe relative frequency).
type RunPayload struct {
	FRel   float64 `json:"f_rel"`
	Perf   float64 `json:"perf"`
	PowerW float64 `json:"power_w"`
	PE     float64 `json:"pe"`
}

// Result is one event's outcome, streamed back in submission order.
type Result struct {
	// Seq is the event's fleet-global ingest sequence number.
	Seq   int64  `json:"seq"`
	At    int64  `json:"at"`
	Kind  string `json:"kind"`
	Class string `json:"class,omitempty"`
	Chip  int64  `json:"chip"`
	Env   string `json:"env,omitempty"`
	Mode  string `json:"mode,omitempty"`
	App   string `json:"app,omitempty"`
	Phase *int   `json:"phase,omitempty"`

	Status string `json:"status"`
	// Err describes a StatusError result.
	Err string `json:"err,omitempty"`
	// Run carries the unit's results for StatusOK run events.
	Run *RunPayload `json:"run,omitempty"`

	// Diagnostics. These describe how the service happened to execute
	// the unit — batching, placement, cache state, queueing — and are
	// excluded from Canonical(), which is what the determinism contract
	// covers.

	// CacheHit reports that no core solved the unit for this request:
	// it came from the artifact store or from the chip's replay table,
	// which holds every unit this admission of the chip has already
	// answered, computed or read. A record evicted or damaged after the
	// chip read it is not read again until the chip rejoins.
	CacheHit bool    `json:"cache_hit,omitempty"`
	Batched  int     `json:"batched,omitempty"`
	Worker   int     `json:"worker,omitempty"`
	SchedMs  float64 `json:"sched_ms,omitempty"`
	TotalMs  float64 `json:"total_ms,omitempty"`
}

// Canonical returns the result with execution diagnostics zeroed: the
// part of a result that is byte-identical at every worker count for a
// fixed seed and single-client event trace (see the package contract).
func (r Result) Canonical() Result {
	r.CacheHit = false
	r.Batched = 0
	r.Worker = 0
	r.SchedMs = 0
	r.TotalMs = 0
	return r
}
