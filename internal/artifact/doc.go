// Package artifact is a persistent, content-addressed, concurrency-safe
// on-disk cache for the expensive deterministic artifacts of the EVAL
// stack: chip variation maps (varius.ChipMaps), phase performance
// profiles (pipeline.Profile), trained fuzzy-controller sets
// (adapt.FuzzySolver), accumulated PE-fmax tables, and generated
// workload traces (workload.TraceV1). All are pure functions of
// (parameters, seed), which is the paper's own artifact lifecycle — the
// manufacturer tests a die once, profiles a phase once, trains a
// controller set once, and every later run reuses the stored result
// (§4.2-§4.3).
//
// # Key derivation
//
// An entry's key is the lowercase-hex SHA-256 of the compact JSON
// encoding of
//
//	{
//	  "schema":   1,               // key pre-image version (keySchema)
//	  "kind":     <producer name>, // "chip", "profile", "solver", ...
//	  "version":  <producer version>,
//	  "params":   <full parameter struct>,
//	  "seed":     <seed>
//	}
//
// where params is the producer's complete input configuration (for a
// solver: the varius/power/thermal/checker/limits parameters, the
// technique configuration, the training-chip seeds, and every
// TrainOptions field that affects the trained weights — Workers and Obs
// are excluded because training output is byte-identical without them).
// Struct fields marshal in declaration order, so the encoding — and the
// key — is deterministic. Any parameter change, seed change, or producer
// version bump therefore misses cleanly; there is no in-place migration
// of a stale payload, only rebuild-and-overwrite.
//
// Key is the definition. A producer that keys many values sharing large
// sub-structures may encode those once and hand the pieces to
// EncodedKey, which hashes the same envelope around them and returns
// the same key. The core package's apprun, profile, staticpt and solver
// keys work this way: each pre-image is assembled from the machine
// block (encoded once per technique configuration), an app's block and
// its phases' profile encodings (encoded once per app, and again when
// its phases change) and a few per-call fields, and is byte-identical
// to Key's encoding of the whole params struct; a fuzz target holds
// each to the same bytes, and params that encoding/json rejects (NaN,
// ±Inf) still leave the value without a key.
//
// The pre-image "schema" is keySchema, pinned at 1; it is NOT
// SchemaVersion, which versions the storage layout below. Bumping it
// would re-key every stored entry, so producers version their output
// through Kind.Version instead.
//
// Two kinds carry workload-trace identity (see WORKLOADS.md):
//
//   - "trace"@1 stores generated workload.TraceV1 documents keyed by
//     their generator inputs (params: the workload.Spec, seed): a warm
//     run replays the stored canonical document instead of regenerating
//     it, byte-identically either way.
//   - "profile"@2 keys include the app's TraceV1 content hash (empty
//     for the built-in proxy suite), so identically named apps from
//     different traces never alias each other's profiles, and any byte
//     change to a trace re-keys everything derived from it.
//
// # On-disk layout (store schema v2)
//
// A store directory holds numShards (8) packfile segments plus one
// index file:
//
//	pack-00.bin … pack-07.bin    append-only record segments
//	index.bin                    persistent index, atomically replaced
//
// Entries stripe across segments by the leading hex nibble of their key
// (shardOf), so compaction rewrites 1/8 of the store at a time.
//
// Each segment is a concatenation of framed records:
//
//	magic "EVR2" [4]
//	uvarint kindLen, kind bytes
//	raw key [32]                 (SHA-256 digest, hex-decoded)
//	uvarint payloadLen, payload bytes
//	crc32c [4, little-endian]    (covers everything above it)
//
// Records are immutable once appended; rewriting a key appends a new
// record and repoints the index, leaving the old record as garbage for
// the next compaction. The checksum is CRC-32C (Castagnoli,
// hardware-accelerated): a cache record needs corruption detection, not
// collision resistance, and the CRC is an order of magnitude cheaper
// than SHA-256 on the warm path.
//
// The index file maps key → (segment, offset, length, atime):
//
//	magic "EVI2" [4]
//	uvarint schema (= SchemaVersion)
//	uvarint nShards, per-shard covered length
//	uvarint nKinds, length-prefixed kind strings
//	uvarint nEntries, entries: (uvarint kindRef, raw key [32],
//	    uvarint shard, offset, size, atime)
//	crc32c [4, little-endian]
//
// Entries are sorted by (kind, key), so identical stores serialize
// identically. The covered lengths record how much of each segment the
// index describes; Open scans each segment's bytes beyond them (the
// tail scan) to recover records appended after the last index save.
//
// Both decoders treat their bytes as hostile: every length prefix is
// bounded by the bytes left before it is sliced, added to an offset or
// allocated for. A record whose payload length passes the data is a
// truncated tail; an index with a kind or entry count its body cannot
// hold, or a covered length, entry offset or entry size that is
// negative as an int64, a zero size, or an end that overflows, is a
// corrupt index and takes the full rescan below (FuzzParseRecord,
// FuzzDecodeIndex).
//
// The store reads and writes this layout only. A directory in the older
// layout (one JSON envelope file per entry under dir/<kind>/<key[:2]>/)
// opens as an empty store: its files are neither read, counted, evicted
// nor removed, and every lookup misses and rebuilds into packfiles.
// Delete such a directory (make cache-clean) to reclaim its space.
//
// # Payload encodings
//
// The store treats a payload as opaque bytes, and each kind's producer
// owns its codec. The chip, profile, solver, petables, apprun and
// staticpt kinds use the columnar binary form: the BinaryTag byte
// (0xB2), a kind-specific format version, then the fields. The binary
// form (Enc/Dec) writes small integers as varints and dense float64
// columns — chip grids, controller weight matrices, PE tables — as
// contiguous little-endian IEEE-754 blocks: bit-exact round-trips with
// no number formatting or parsing. Their decoders accept nothing else,
// so a record of one of these kinds holding other bytes (a JSON
// document, say) fails to decode and is rebuilt like any corrupt
// record. (The trace, outcomes and table2 kinds store JSON documents,
// which only their own decoders parse.)
//
// # Recovery
//
// Open restores the index file when intact and otherwise rebuilds it by
// scanning every segment (artifact.cache.index_rebuilds counts this).
// Either way every segment's uncovered tail is scanned for appended
// records; a partial record at a tail (crashed writer) is truncated
// away; a segment shorter than its covered length (externally truncated
// or replaced) drops its index entries and rescans from zero; index
// entries pointing outside their segment are dropped. A crashed or
// killed process therefore loses at most a partial tail record — a
// clean miss on the next run, never corruption, since every read
// re-verifies the record checksum.
//
// # Failure semantics
//
// The cache can never fail a run or change a result. A missing entry is
// a miss; a corrupt entry — truncation, bit flip, framing or checksum
// mismatch, or a payload its consumer cannot decode — is a *counted*
// miss (artifact.cache.corrupt) that rebuilds and supersedes the
// record. Write failures (read-only disk, ENOSPC) are counted and
// swallowed; the freshly built artifact is still returned. Loaded
// artifacts are byte-exact reproductions of what the producer built
// (payload codecs round-trip float64 exactly), so cold and warm runs of
// an experiment are byte-identical at a fixed seed.
//
// # Persistence
//
// Put and GetOrBuild persist in the calling goroutine:
//
//   - Durable on return: the record is in its packfile and its index
//     entry published before the write returns, so a store opened on
//     the directory later — another process, or the next run after
//     this one was killed — finds it through the saved index or Open's
//     tail scan. (The store does not fsync: a machine crash can still
//     lose what the kernel had not written back.)
//   - Read-your-writes: a store reads its own writes through the index.
//   - Last write wins in index order: a key's entry points at the record
//     published last, and a tail scan resolves duplicates in append
//     order, which is the same order.
//
// The write that takes the bytes written since the last settle past
// sweepIntervalBytes settles the store (sweep, compaction, index save)
// unless another goroutine is settling. Flush forces a settle; Close
// forces one and closes the segment handles, leaving the store usable.
// Both are idempotent and nil-safe. Close on a store that wrote nothing
// since Open settles nothing: it leaves the directory untouched (no
// eviction, compaction, debris sweep or index save), so a process that
// only reads a directory never rewrites what another process writes.
//
// # Concurrency and bounds
//
// The packed layout assumes a single writing process at a time
// (in-process concurrency is unrestricted). Concurrent readers of a
// directory another process is writing remain safe — the index is
// replaced atomically and segment tails are re-scanned — and duplicate
// work across processes is harmless (identical content either way).
//
// In-process, GetOrBuild deduplicates concurrent builds of the same key
// (single-flight): one goroutine builds, the rest wait and decode the
// same bytes. Reads are pread-based and lockless against appends; a
// compaction atomically renames the rewritten segment into place and
// retires the old read descriptor, so in-flight reads finish against
// the old inode. An LRU sweep bounded at 2 GiB (maxStoreBytes) evicts the
// least-recently-used records once enough written bytes accumulate (and
// always at Flush, and at Close after a write); hits bump an entry's
// atime, which only a store that writes persists, in its next index
// save — a read-only store's bumps stay in memory. Eviction marks
// record bytes as garbage; compaction rewrites a segment without them
// when its garbage passes compactMinGarbage and half the segment, or
// whenever the store is over its cap. The settle pass and the disk-byte
// accounting it publishes are serialized under a dedicated mutex. An
// append publishes its index entry before it releases its segment's
// stripe lock, which a compaction holds while it rewrites the segment,
// so a rewrite never drops a record the index points into.
//
// # Metrics
//
// With a non-nil obs.Registry the store records artifact.cache.{hits,
// misses,corrupt,bytes,write_errors,evictions,compactions,
// index_rebuilds} counters plus per-kind variants
// (artifact.cache.<kind>.{hits,misses,corrupt}), the
// artifact.cache.{encode_ns,decode_ns} timers around record framing and
// record reads, an artifact.cache.segments gauge (live packfile count),
// and an artifact.cache.disk_bytes gauge after each settle.
package artifact
