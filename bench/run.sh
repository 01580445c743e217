#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the Go toolchain writes (build cache, module cache,
# temporaries, the binary) stays under .bench_build/ in the working
# directory, so a run reads and writes nothing outside its checkout.
#
#   bash bench/run.sh --workload fwd_64 --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

# bench/ is its own module that replaces "gem" with the parent directory:
# where that is missing (a directory holding only the benchmark), this fails.
go build -C "$here" -o "$out/gem-bench" .
exec "$out/gem-bench" "$@"
