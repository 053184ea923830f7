// Package fleet is the shared-clock discrete-event simulation service
// over the EVAL core: it scales the repo's unit of work — one (chip,
// environment, app, phase) adaptation, memoized in the artifact store —
// from batch CLIs to a long-running request stream serving tens of
// thousands of variation-affected chips.
//
// # Event model
//
// Clients submit ordered batches of Events. A join admits a chip (its
// variation maps, stage models, and PE-table donor build lazily on
// first use and are shared by all of its units); a leave retires it,
// writing back the PE tables its units built once its in-flight units
// drain; a run requests one simulation unit — a phase
// change or retuning on an admitted chip, in one Table 1 environment
// and adaptation mode. Event timestamps (At) drive a virtual clock: the
// running maximum of submitted times. The clock feeds per-class
// token-bucket admission; it never influences simulation results.
//
// # Scheduling
//
// One ingest lock covers a SubmitBatch call's scan of its events. Under
// it the batch takes its sequence numbers, folds timestamps into the
// virtual clock, joins and retires chips (and so picks each new chip's
// owner), spends admission tokens, and finds each event's stats class.
// Compatible run events — same (chip, environment, mode) — coalesce
// into bounded unit batches, which are sent to the worker queues after
// the lock is released, so a worker stalled by a slow client blocks no
// other batch's ingest. Workers record latencies in one histogram pair
// for the fleet and one per class.
//
// There is no routing policy. Each admitted chip has one owner worker,
// assigned in join order (the n-th chip admitted goes to worker n mod
// Workers), and every unit batch of the chip goes to the owner's queue
// in ingest order. The owner builds the chip's handle (variation maps,
// stage models, a PE-table store that imports the chip's stored tables
// on its first miss) on the chip's first unit, then one core per
// environment from it; the cores live on the chip's membership entry
// and only the owner touches them, so a chip that leaves takes them
// with it once its units drain. Inside a batch, duplicate (app, phase)
// events share one solve, and results flow back through the submission
// batch. No indexed probe of the store runs first: each group's
// Result.CacheHit is the hit bit of the read that serves it
// (core.AppRun.CacheHit), so a record that fails its checksum or its
// decoder, which the store rebuilds, is served and counted as a miss.
// A unit the chip has already answered during this admission replays
// from the chip entry's table: it derives no apprun key, reads no
// record, drives no core, and counts as a cache hit, however it was
// first answered. A unit read from the store enters the table, since a
// store hit never drives a core; so does a computed unit whose core's
// Evaluate memo is still complete (adapt.Core.MemoComplete), since
// solving it again there would hit the memo at every probe and return
// the same result without moving the thermal warm start. Either way
// every core runs as it would without the table, and the table is the
// one memo that answers a recurring unit, with a store or without one.
// A record evicted or damaged after the chip read it is not read again
// until the chip rejoins.
// The price of ownership: a chip's units never run on two workers at
// once, so a fleet with fewer resident chips than workers leaves
// workers idle.
//
// # Ordering and determinism contract
//
// Results are emitted in submission order: within one SubmitBatch call,
// the emit callback observes results exactly in event order, whatever
// order workers finish in (a ready-array cursor re-serializes
// emission). Across concurrent SubmitBatch calls, each batch is
// ingested whole, in lock order: it owns a contiguous sequence block,
// and its joins, leaves and admissions take effect in sequence order,
// so the n-th successful join in sequence order gets worker n mod
// Workers. Unit batches are queued after the lock is released, so two
// concurrent batches' units of one chip run in queue order, which need
// not be lock order. The contract below is defined over a single-client
// trace, where lock order, queue order and submission order agree.
//
// For a fixed simulator seed and a fixed single-client event trace,
// Result.Canonical() — everything except the execution diagnostics
// (owner worker, latencies, cache hits, batching counts) — is
// byte-identical at every worker count, with no artifact store or with
// a store that starts empty. Sequence assignment, the virtual clock,
// admission, and chip ownership are decided at ingest from the trace
// alone, and per-batch emission is re-serialized by submission order.
//
// Units are not pure. A unit's value still depends on the units the
// chip ran before it in the same environment: the core's warm-started
// thermal solve and its memo carry state from one unit to the next
// (ROADMAP item 2). Ownership makes that history a function of the
// trace rather than of the placement: a chip's unit batches run in
// ingest order on one core per environment, whichever worker owns the
// chip. A store written by a different trace replays that trace's
// history, so the contract does not extend to one. The determinism test
// plays a long mixed-mode history trace and then its run events again,
// so every unit recurs on its core, at workers {1, 2, 8}, each on a
// fresh simulator without a store, then a cold run into a fresh store
// and a warm run from the reopened store, and compares canonical JSON
// byte-for-byte; on amd64 the workers=1 stream must also match a
// recorded SHA-256.
package fleet
