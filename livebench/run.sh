#!/usr/bin/env bash
# Builds the live loopback-cluster benchmark from source and runs it.
#
# Run from the repository root:
#
#	bash livebench/run.sh --workload n4-light --seed 1 --seconds 12 --trace 0
#
# Build products, the Go build cache and the durable workloads' WAL
# directories all live under $CARGO_TARGET_DIR (default .bench_build), so
# the run reads and writes nothing outside the checkout. Compiler output
# goes to standard error: the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" # the go command's env file and telemetry
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd livebench && go build -o "$out/livebench" .) >&2
exec "$out/livebench" --dir "$out" "$@"
