#!/usr/bin/env bash
# Builds the benchmark harness and evalserve from this checkout's sources
# and runs one workload. Run from the repository root:
#
#   bash evalbench/run.sh --workload fig-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d internal/core || ! -d cmd/evalserve || ! -f evalbench/go.mod ]]; then
	echo "evalbench: run from the repository root (needs go.mod, internal/, cmd/evalserve, evalbench/)" >&2
	exit 2
fi
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd evalbench && go build -o "$out/bin/evalbench" . && go build -o "$out/bin/evalserve" repro/cmd/evalserve) >&2
exec "$out/bin/evalbench" --root "$root" --evalserve "$out/bin/evalserve" "$@"
