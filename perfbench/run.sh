#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload suite --seed 42 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays under
# .bench_build/ there: the Go build cache, the binary, daemon state and
# trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .)
exec "$out/perfbench.bin" --dir "$out/run" "$@"
