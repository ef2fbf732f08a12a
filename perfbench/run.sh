#!/usr/bin/env bash
# Builds the cfa binary and the benchmark from the checkout's sources,
# then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload aodv-tcp --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write goes under .bench_build/perfbench
# in the checkout, the Go build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/cfa || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/cfa and perfbench/go.mod must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off CGO_ENABLED=0

go build -o "$out/cfa" ./cmd/cfa
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -cfa "$out/cfa" -out "$out" "$@"
