#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments, for example:
#
#   bash perfbench/run.sh --workload small-tcp --seed 1 --seconds 10 --trace 0
#
# The Go build cache and temporary files also stay under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
