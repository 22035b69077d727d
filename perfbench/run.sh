#!/usr/bin/env bash
# Builds the benchmark from source into the checkout and runs it:
#
#   bash perfbench/run.sh --workload burst-io --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, span files and profiles) stays under .bench_build/
# (or $CARGO_TARGET_DIR when set), so a checkout is never written
# elsewhere.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/go-cache GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTMPDIR=$build GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
