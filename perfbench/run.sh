#!/usr/bin/env bash
# Builds the benchmark from the sources next to this script and runs it.
#
#   bash perfbench/run.sh --workload figures_cold --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# repository root (Go build cache, temporary files, the binary, span files).
# The last line of standard output is the result JSON; a failed build exits
# non-zero without printing one.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"

# The go command's caches, temporary files and per-user state (its
# telemetry counters live under $HOME) all go under .bench_build/.
(
	cd "$here"
	export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOENV=off
	export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
	export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
	go build -o "$out/perfbench" .
) >&2

# The benchmark's setup_s counts from this instant: exec, runtime start,
# package init, input generation and warm-up.
SLMSPERF_T0=$(date +%s%N)
export SLMSPERF_T0
cd "$root"
exec "$out/perfbench" -out "$out" "$@"
