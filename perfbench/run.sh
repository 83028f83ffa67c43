#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload fj-deep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced run's Chrome trace files go to .bench_build/; the build's output
# goes to standard error, so the last line of standard output is the
# benchmark's JSON result.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
