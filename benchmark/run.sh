#!/usr/bin/env bash
# Entry point of the benchmark for the acceptance driver (BENCHMARK.json's
# command): build the benchmark from source inside the checkout, then run
# it. Everything the Go toolchain writes — build cache, temporaries, the
# binaries — stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/bayesd" ]; then
	echo "benchmark: $root is not the repository (no go.mod, no cmd/bayesd): nothing to measure" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -root "$root" "$@"
