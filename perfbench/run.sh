#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments, from
# the repository root:
#
#   bash perfbench/run.sh --workload fed-exam --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary and the spans
# of traced runs. Nothing is fetched; the toolchain must already be
# installed. Outside a full checkout (no codsim module next to perfbench/)
# the build fails and the script exits nonzero without a result.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off \
	GOPROXY=off GOTOOLCHAIN=local
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
