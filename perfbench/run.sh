#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.  Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload deep-window --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary and everything the benchmark writes stay
# under .bench_build/ in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
