#!/usr/bin/env bash
# Builds the service benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload read-routed --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, temp files, the
# benchmark binary, data files, traces) stays under .bench_build/ in the
# checkout. The last line of standard output is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" "$@"
