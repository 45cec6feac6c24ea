#!/usr/bin/env bash
# Builds the benchmark and srdaserve from this checkout's sources, then
# runs the benchmark.  Run it from the repository root:
#
#   bash _bench/run.sh --workload fit-text --seed 1 --seconds 10 --trace 0
#   bash _bench/run.sh compare DIR_A DIR_B
#
# Builds, the Go build cache, generated inputs and saved results all
# stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# Any other go command may fork a detached telemetry sidecar that
# outlives the build; "go telemetry off" is the one that never does.
go telemetry off
go build -o "$out/bin/srdaserve" ./cmd/srdaserve
go -C _bench build -o "$out/bin/srdaperf" .
if [ "${1:-}" = compare ]; then
	exec "$out/bin/srdaperf" "$@"
fi
exec "$out/bin/srdaperf" "$@" -root "$root" -bin "$out/bin"
