#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; every
# argument passes through to the binary (see main.go for the flags).
#
#   bash _perfbench/run.sh --workload check-hot --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache included, stay under $CARGO_TARGET_DIR
# (default .bench_build at the checkout root), so the run writes nothing
# outside the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-$(dirname "$here")/.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
