#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash _perfbench/run.sh --workload fig-small --seed 1 --seconds 45 --trace 0
# Every build artefact and output stays under .bench_build/ in the
# current directory, so the toolchain caches nothing elsewhere.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd _perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
