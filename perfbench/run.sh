#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root:
#
#   bash perfbench/run.sh --workload knee|figures|fleet --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --steady 5 --sets 2   # steadiness verdicts, one command
#   bash perfbench/run.sh --pin                 # re-pin the reference digests
#
# Everything the build and the runs write stays under .bench_build.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
