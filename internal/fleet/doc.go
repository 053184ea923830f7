// Package fleet is the shared-clock discrete-event simulation service
// over the EVAL core: it scales the repo's unit of work — one pure
// (chip, environment, app, phase) adaptation, memoized in the artifact
// store — from batch CLIs to a long-running request stream serving tens
// of thousands of variation-affected chips.
//
// # Event model
//
// Clients submit ordered batches of Events. A join admits a chip (its
// variation maps, stage models, and PE-table donor build lazily on
// first use and are shared by all of its units); a leave retires it,
// flushing accumulated PE tables back to the artifact store once its
// in-flight units drain; a run requests one simulation unit — a phase
// change or retuning on an admitted chip, in one Table 1 environment
// and adaptation mode. Event timestamps (At) drive a virtual clock: the
// running maximum of submitted times. The clock feeds per-class
// token-bucket admission; it never influences simulation results.
//
// # Scheduling
//
// Ingest holds no global lock. A SubmitBatch call reserves its
// contiguous sequence block with one atomic add, folds timestamps into
// the virtual clock (an atomic running maximum), and then walks its
// events touching only sharded state: chip membership lives in
// hash-sharded maps (Config.MemberShards), admission buckets carry
// per-class locks, stats are atomic counters behind a copy-on-write
// class table with per-worker latency shards, and routing cursors are
// atomics. Compatible run events — same (chip, environment, mode) —
// coalesce into bounded unit batches that a routing policy
// (round-robin, least-loaded, affinity-by-chip) places on worker
// queues. Workers are pure with respect to ingest state: inside a
// batch, duplicate (app, phase) events share one solve, a single
// indexed probe (artifact.Store.ContainsBatch) splits groups into cache
// replays and cold solves, and results flow back through the submission
// batch. Each chip builds its handle (variation maps, stage models, PE
// tables) once, shared across the pool; each worker derives its own
// cheap core per environment from it, so adding workers never
// multiplies the chip build. The cores live on the chip's membership
// entry, one slot per worker, so a chip that leaves takes them with it
// once its units drain.
//
// # Ordering and determinism contract
//
// Results are emitted in submission order: within one SubmitBatch call,
// the emit callback observes results exactly in event order, whatever
// order workers finish in (a ready-array cursor re-serializes
// emission). Across concurrent SubmitBatch calls only sequence numbers
// order events — each call owns a contiguous block, and block order
// follows the atomic reservation; admission within a class follows
// bucket-lock acquisition order. The contract below is defined over a
// single-client trace, where both orders reduce to submission order.
//
// For a fixed simulator seed and a fixed event trace (one client
// submitting the same batches in the same order), Result.Canonical() —
// everything except the execution diagnostics (worker placement,
// latencies, cache hits, batching counts) — is byte-identical at every
// worker count, every shard count, and every routing policy. The three
// load-bearing properties: sequence assignment, the virtual clock, and
// admission are decided at ingest from the trace alone (serially, for a
// serial submitter); simulation units are pure functions of (chip seed,
// environment, mode, app, phase) — worker placement, core-view
// derivation, and PE-table build order cannot change their values; and
// per-batch emission is re-serialized by submission order. The
// determinism tests sweep shard counts {1, 32} × workers {1, 8} × all
// routing policies and compare canonical JSON byte-for-byte.
package fleet
