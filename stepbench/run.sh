#!/usr/bin/env bash
# Builds the step benchmark from the source tree it is run in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash stepbench/run.sh --workload sidco-inproc --seed 1 --seconds 20 --trace 0
#
# Every build output (the binary, the Go build cache) stays under
# .bench_build in the working directory (or $CARGO_TARGET_DIR if set).
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=-mod=mod

(cd "$here" && go build -o "$out/stepbench" .)
exec "$out/stepbench" "$@"
