#!/usr/bin/env bash
# Builds the benchmark from this checkout, then runs one workload:
#
#   bash apresbench/run.sh --workload sim_single --seed 1 --seconds 20 --trace 0
#
# Run it from the checkout root. Everything it builds or writes stays under
# .bench_build/ in the checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp"

# Build output goes to stderr: the last stdout line is the result.
(cd apresbench && go build -o "$out/apresbench" .) >&2
exec "$out/apresbench" --root "$root" --scratch "$out/scratch" "$@"
