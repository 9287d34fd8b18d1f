#!/usr/bin/env bash
# Builds the perfbench harness from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (compiler cache, temporaries, the binary and
# the span traces of traced runs) stays under .bench_build in the
# repository root, so a run reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local CGO_ENABLED=0
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
