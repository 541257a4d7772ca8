#!/usr/bin/env bash
# Builds the simulator benchmark from the sources in this checkout and runs
# it. Run from the repository root:
#
#   bash simbench/run.sh --workload <array-skew|tpcc-rw|vecdb-scan> --seed <n> --seconds <s> --trace <0|1>
#
# Build outputs, the Go build cache and temporary files, Go's own config and
# telemetry files and the span files of traced runs all stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/simbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C "$root/simbench" build -o "$out/simbench" .
exec "$out/simbench" --out "$out" "$@"
