#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload null-lrpc-sim --seed 1 --seconds 10 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
# Outside a checkout (no go.mod beside perfbench/) the build fails and
# the script exits nonzero without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/go-cache" GOMODCACHE="$root/.bench_build/go-mod" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOPROXY=off
mkdir -p "$root/.bench_build"
(cd perfbench && go build -o "$root/.bench_build/perfbench" .) >&2
exec "$root/.bench_build/perfbench" "$@"
