#!/usr/bin/env bash
# Builds dualserved and the benchmark harness from the sources of the
# checkout it is started in, then runs the harness with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload decide-cold --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh compare base.jsonl head.jsonl
#
# Every build product, the Go build cache included, stays in .bench_build/
# of the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go build -o "$out/dualserved" ./cmd/dualserved
go -C bench build -o "$out/harness" .
exec "$out/harness" "$@"
