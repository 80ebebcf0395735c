#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash bench/run.sh --workload ssh-periodic-masked --seed 1 --seconds 12 --trace 0
#
# Every file the toolchain writes (build cache, module cache, temporaries,
# the binary) goes to .bench_build/ at the checkout root, and nothing is
# fetched: the benchmark module depends only on the repository module,
# through a replace directive to the parent directory. Without the
# repository sources beside bench/ the build fails and no result is printed.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

go -C "$root/bench" build -o "$build/clizperf" .
cd "$root"
exec "$build/clizperf" "$@"
