.PHONY: check build test vet fmt bench bench-smoke bench-floors bench-check-fleet fig-digests cache-clean spec-check doc-check fuzz-smoke

# Tier-1 gate: everything must pass before a commit lands.
check: vet build test

vet:
	go vet ./...

build:
	go build ./...

# The allocation tests run twice: under -race with everything else, and
# without it, because the race detector's sync.Pool drops a random
# quarter of the objects put back and TestSubmitBatchAllocs only holds
# its limits without it.
test:
	go test -race ./...
	go test -run 'Allocs$$' ./internal/core ./internal/fleet ./internal/thermal

fmt:
	gofmt -l .

# Headline benchmarks (one per table/figure, plus the obs overhead pair).
bench:
	go test -run '^$$' -bench . -benchtime 1x ./...

# One-iteration run of the serial-vs-parallel training benchmark: cheap
# enough for CI, and catches regressions that only break the parallel
# training path (the unit tests cover determinism; this covers "it runs").
bench-smoke:
	go test -run '^$$' -bench TrainFuzzy -benchtime 1x .

# Fleet scaling-parity gate: over the median of five BenchmarkFleet
# runs, workers=8 must reach 0.90 of the workers=1 events/s warm (at
# 2000x) and 0.50 cold (at 20x). Each ratio compares two rows of one
# run, so it needs no baseline.
bench-check-fleet:
	go run ./tools/benchjson

# $(call verdict,WORKLOAD,SEED,SECONDS,TRACE) runs one benchmark
# workload, prints its verdict (the run's last line) and fails unless it
# reads "correct":true with 0 failed; $(call metric,NAME) then reads one
# metric's value from that verdict.
verdict = verdict=$$(bash evalbench/run.sh --workload $(1) --seed $(2) --seconds $(3) --trace $(4) | tail -n 1); \
	echo "$$verdict"; \
	echo "$$verdict" | grep -q '"correct":true' || exit 1; \
	echo "$$verdict" | grep -Eq '"failed":0[,}]' || exit 1
metric = $$(echo "$$verdict" | sed -n 's/.*"$(1)":{"value":\([^,}]*\).*/\1/p')

# Recorded-output gate: one short fig-cold run for each seed with a
# recorded output digest (0-10); fails unless every verdict reads
# "correct":true with 0 failed, so any drift in the Figures 10-12 outputs
# fails. It does not guard the Freq tie rule: no caller reads a Freq
# solve's Vdd/Vbb, only its FMax, so a search that broke ties otherwise
# would still match every digest. Only the equivalence tests and
# FuzzFreqSolvePrunedVsUnpruned's seed corpus see the tie rule.
fig-digests:
	@for s in 0 1 2 3 4 5 6 7 8 9 10; do \
	  echo "seed $$s:"; \
	  $(call verdict,fig-cold,$$s,1,0); \
	done

# Benchmark floors: the five evalbench runs CI makes, each judged on
# its last line, the run's verdict, which must read "correct":true with
# 0 failed (fig-cold's also checks seed 1's recorded output digest).
# Each of the four untraced runs (seed 1, 5 s, no tracing) must spend
# less CPU per operation than its ceiling below: twice the median
# cpu_ms_per_op of ten 15 s runs of that workload on the 2-vCPU
# reference host when the ceilings were set (EXPERIMENTS.md, the
# one-benchmark round). The traced serve-replay run (evalserve restarted
# on a populated store, a closed loop over up to nproc connections) must
# serve wall.events_per_s >= 10000 with fleet.queue_wait_p99_ms < 10
# over HTTP.
FIG_COLD_MAX_MS = 4300
FIG_WARM_MAX_MS = 30
SERVE_REPLAY_MAX_MS = 0.70
SERVE_COLD_MAX_MS = 4.7

# $(call ceiling,WORKLOAD,MAX_MS) runs WORKLOAD untraced and fails unless
# its cpu_ms_per_op is under MAX_MS.
ceiling = $(call verdict,$(1),1,5,0); \
	cpu=$(call metric,cpu_ms_per_op); \
	echo "bench-floors: $(1) cpu_ms_per_op $$cpu (ceiling $(2))"; \
	awk -v c="$$cpu" 'BEGIN { exit !(c != "" && c < $(2)) }'

bench-floors:
	@$(call ceiling,fig-cold,$(FIG_COLD_MAX_MS))
	@$(call ceiling,fig-warm,$(FIG_WARM_MAX_MS))
	@$(call ceiling,serve-replay,$(SERVE_REPLAY_MAX_MS))
	@$(call ceiling,serve-cold,$(SERVE_COLD_MAX_MS))
	@$(call verdict,serve-replay,1,5,1); \
	evs=$(call metric,wall\.events_per_s); \
	qw=$(call metric,fleet\.queue_wait_p99_ms); \
	echo "bench-floors: wall.events_per_s $$evs (floor 10000), fleet.queue_wait_p99_ms $$qw (ceiling 10)"; \
	awk -v e="$$evs" -v q="$$qw" 'BEGIN { exit !(e != "" && q != "" && e >= 10000 && q < 10) }'

# Short coverage-guided runs of the native fuzz targets: the SoA pipeline
# kernel against its array-of-structs reference, the pruned Freq solver
# against the exhaustive scan, the certified-bracket PE-fmax kernel
# against the plain bisection, the apprun key assembled from cached
# blocks against artifact.Key over the whole params struct, the
# one-pass /v1/batch body decoder against encoding/json, and the solver,
# petables, apprun, profile and staticpt payload decoders the warm path
# reads records through (never a panic; an accepted payload round-trips,
# the last three accept only finite floats, and a solver fingerprints as
# the bytes it came from). The seed corpora (checked in
# under testdata/fuzz/, or added in the fuzz functions) already run as
# part of `make test`; this explores beyond them for a bounded budget.
fuzz-smoke:
	go test ./internal/pipeline -run '^$$' -fuzz FuzzSimulateVsReference -fuzztime 20s
	go test ./internal/adapt -run '^$$' -fuzz FuzzFreqSolvePrunedVsUnpruned -fuzztime 20s
	go test ./internal/adapt -run '^$$' -fuzz FuzzSolverPayload -fuzztime 20s
	go test ./internal/vats -run '^$$' -fuzz FuzzFMaxForPESetVsReference -fuzztime 20s
	go test ./internal/core -run '^$$' -fuzz FuzzAppRunKeyVsKey -fuzztime 20s
	go test ./internal/core -run '^$$' -fuzz FuzzDecodePETables -fuzztime 20s
	go test ./internal/core -run '^$$' -fuzz FuzzDecodePayloads -fuzztime 20s
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
