#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the root of the repository, for example:
#
#   bash benchmark/run.sh --workload gwork-small --seed 7 --seconds 15 --trace 0
#
# The Go build cache, the module cache and the binary all live under
# .bench_build/ in the current directory, so nothing is written outside
# it. A failed build exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

(cd "$root/benchmark" && go build -o "$out/gflink-benchmark" .)
exec "$out/gflink-benchmark" "$@"
