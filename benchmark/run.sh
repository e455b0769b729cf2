#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build at the repository
# root and runs it with the given arguments, from the repository root:
#
#   bash benchmark/run.sh --workload paper_e2e --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the go command's own config
# and telemetry directory stay under .bench_build, and no module is
# fetched: the benchmark module requires only the simulator module one
# directory up.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

(
	cd "$here"
	GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
		XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
		go build -o "$out/dilu-benchmark" .
)

cd "$root"
exec "$out/dilu-benchmark" "$@"
