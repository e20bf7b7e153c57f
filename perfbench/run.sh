#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload allreduce --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run produce stays under .bench_build/ in
# the repository root: the Go build cache, the binary, span logs, CPU
# profiles and per-run result records.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (sources not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$root/.bench_build/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit=unknown
if [[ -e "$root/.git" ]]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/perfbench" -root "$root" -out "$out" -commit "$commit" "$@"
