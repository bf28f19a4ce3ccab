#!/usr/bin/env bash
# Builds the serving benchmark from the checkout that contains this script
# and runs it with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload revisit --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary all live under
# .bench_build/ at the checkout root, so a run writes nothing outside it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/benchmark" build -o "$build/ziggy-bench" .
cd "$root"
exec "$build/ziggy-bench" "$@"
