.PHONY: check build test vet fmt bench bench-json bench-smoke bench-check-warm bench-check-cold bench-check-fleet fig-digests serve-floors cache-clean spec-check doc-check fuzz-smoke

# Tier-1 gate: everything must pass before a commit lands.
check: vet build test

vet:
	go vet ./...

build:
	go build ./...

test:
	go test -race ./...

fmt:
	gofmt -l .

# Headline benchmarks (one per table/figure, plus the obs overhead pair).
bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

# Adaptation-engine benchmark trajectory: runs the solver/chip/pipeline
# microbenchmarks plus the end-to-end experiments (Figure 10, and the
# serial-vs-parallel training and Figure 13 pairs) and the in-process
# fleet benchmark, and records everything per commit in BENCH_adapt.json.
# Served events/s and request p99 over HTTP come from evalbench's
# serve-replay workload (see serve-floors). Refuses a dirty
# tree (pass -allow-dirty via `go run ./tools/benchjson` directly to
# override; such a run must not be checked in as a baseline).
bench-json:
	go run ./tools/benchjson -out BENCH_adapt.json

# One-iteration run of the serial-vs-parallel training benchmark: cheap
# enough for CI, and catches regressions that only break the parallel
# training path (the unit tests cover determinism; this covers "it runs").
bench-smoke:
	go test -run '^$$' -bench TrainFuzzy -benchtime 1x .

# Warm-path regression gate: re-runs the warm Figure 10 benchmark once and
# fails if it regressed more than 20% against the checked-in trajectory
# (normalized by the reference pipeline kernel to cancel machine speed).
bench-check-warm:
	go run ./tools/benchjson -check-warm BENCH_adapt.json

# Cold-path regression gate: the same normalized 20% check against the
# empty-cache Figure 10 benchmark — the end-to-end build path the batched
# PE tables, the best-first Freq search, and the async artifact flusher
# optimize.
bench-check-cold:
	go run ./tools/benchjson -check-cold BENCH_adapt.json

# Fleet-service gate: the warm single-core serving benchmark must stay
# within the normalized 20% of the checked-in trajectory AND meet the
# absolute service floors (>= 10k warm-cache events/s, scheduling p99
# under 10 ms); over the median of five runs, workers=8 must reach 0.9
# of the workers=1 events/s warm (at 2000x) and 0.5 cold (at 20x).
bench-check-fleet:
	go run ./tools/benchjson -check-fleet BENCH_adapt.json

# Recorded-output gate: one short fig-cold run for each seed with a
# recorded output digest (0-10); fails unless every verdict reads
# "correct":true with 0 failed, so any drift in the Figures 10-12 outputs
# fails. It does not guard the Freq tie rule: no caller reads a Freq
# solve's Vdd/Vbb, only its FMax, so a search that broke ties otherwise
# would still match every digest. Only the equivalence tests and
# FuzzFreqSolvePrunedVsUnpruned's seed corpus see the tie rule.
fig-digests:
	@for s in 0 1 2 3 4 5 6 7 8 9 10; do \
	  verdict=$$(bash evalbench/run.sh --workload fig-cold --seed $$s --seconds 1 --trace 0 | tail -n 1); \
	  echo "seed $$s: $$verdict"; \
	  echo "$$verdict" | grep -q '"correct":true' || exit 1; \
	  echo "$$verdict" | grep -Eq '"failed":0[,}]' || exit 1; \
	done

# HTTP service floors: one traced serve-replay run (evalserve restarted
# on a populated store, a closed loop over up to nproc connections, its
# events store and replay-table hits and baseline probes). Fails
# unless the verdict reads "correct":true with 0 failed, served
# wall.events_per_s >= 10000 and fleet.queue_wait_p99_ms < 10.
serve-floors:
	@verdict=$$(bash evalbench/run.sh --workload serve-replay --seed 1 --seconds 5 --trace 1 | tail -n 1); \
	echo "$$verdict"; \
	echo "$$verdict" | grep -q '"correct":true' || exit 1; \
	echo "$$verdict" | grep -Eq '"failed":0[,}]' || exit 1; \
	evs=$$(echo "$$verdict" | sed -n 's/.*"wall\.events_per_s":{"value":\([^,}]*\).*/\1/p'); \
	qw=$$(echo "$$verdict" | sed -n 's/.*"fleet\.queue_wait_p99_ms":{"value":\([^,}]*\).*/\1/p'); \
	echo "serve-floors: wall.events_per_s $$evs (floor 10000), fleet.queue_wait_p99_ms $$qw (ceiling 10)"; \
	awk -v e="$$evs" -v q="$$qw" 'BEGIN { exit !(e != "" && q != "" && e >= 10000 && q < 10) }'

# Short coverage-guided runs of the native fuzz targets: the SoA pipeline
# kernel against its array-of-structs reference, the pruned Freq solver
# against the exhaustive scan, the certified-bracket PE-fmax kernel
# against the plain bisection, the apprun key assembled from cached
# blocks against artifact.Key over the whole params struct, the
# one-pass /v1/batch body decoder against encoding/json, and the solver
# and petables payload decoders the warm path reads records through
# (never a panic; an accepted payload round-trips, and a solver
# fingerprints as the bytes it came from). The seed corpora (checked in
# under testdata/fuzz/, or added in the fuzz functions) already run as
# part of `make test`; this explores beyond them for a bounded budget.
fuzz-smoke:
	go test ./internal/pipeline -run '^$$' -fuzz FuzzSimulateVsReference -fuzztime 20s
	go test ./internal/adapt -run '^$$' -fuzz FuzzFreqSolvePrunedVsUnpruned -fuzztime 20s
	go test ./internal/adapt -run '^$$' -fuzz FuzzSolverPayload -fuzztime 20s
	go test ./internal/vats -run '^$$' -fuzz FuzzFMaxForPESetVsReference -fuzztime 20s
	go test ./internal/core -run '^$$' -fuzz FuzzAppRunKeyVsKey -fuzztime 20s
	go test ./internal/core -run '^$$' -fuzz FuzzDecodePETables -fuzztime 20s
	go test ./internal/fleet -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 20s
	go test ./internal/workload -run '^$$' -fuzz FuzzDecodeTrace -fuzztime 20s
	go test ./internal/workload -run '^$$' -fuzz FuzzDecodeSpec -fuzztime 20s
	go test ./internal/pipeline -run '^$$' -fuzz FuzzSimulateMonotone -fuzztime 20s
	go test ./internal/artifact -run '^$$' -fuzz FuzzParseRecord -fuzztime 20s
	go test ./internal/artifact -run '^$$' -fuzz FuzzDecodeIndex -fuzztime 20s

# Validate the checked-in example workload specs: each must decode,
# lower, and (for traces) replay byte-identically (see WORKLOADS.md).
spec-check:
	go run ./cmd/tracegen -validate examples/specs/*.json

# Verify every local markdown link in the reference docs points at a
# file that exists, so the docs cannot drift ahead of the tree.
doc-check:
	go run ./tools/doccheck README.md WORKLOADS.md EXPERIMENTS.md ROADMAP.md

# Remove the persistent artifact cache (the CI default directory, or
# whatever EVAL_CACHE_DIR points at). Safe: everything in it is derived
# and rebuilt on demand.
cache-clean:
	rm -rf "$${EVAL_CACHE_DIR:-.artifact-cache}"
