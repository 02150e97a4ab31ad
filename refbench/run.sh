#!/usr/bin/env bash
# Builds the reference benchmark from this checkout's source and runs one
# workload. Run from the repository root:
#
#   bash refbench/run.sh --workload engine-topk --seed 1 --seconds 10 --trace 0
#
# Build output, the Go build cache and span files stay in .bench_build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/refbench" && go build -o "$out/refbench" .) >&2
cd "$root"
exec "$out/refbench" --out "$out" "$@"
