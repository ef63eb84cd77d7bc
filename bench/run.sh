#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#
#   bash bench/run.sh --workload fleet_small --seed 1 --seconds 15 --trace 0
#
# Everything the toolchain and the benchmark write — build cache, binary,
# journals — goes under .bench_build/ at the repository root, so a run reads
# and writes only inside its checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

(
	cd "$here"
	HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
		GOTOOLCHAIN=local go build -o "$build/bench" .
)

cd "$root"
TMPDIR="$build/tmp" exec "$build/bench" "$@"
