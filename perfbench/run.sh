#!/usr/bin/env bash
# Builds the benchmark from the checkout and runs it from the
# repository root:
#
#   bash perfbench/run.sh --workload serial-dtlz2 --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go's build cache, its configuration and
# the binary) goes under .bench_build/ in the checkout. The build needs
# the module's sources beside perfbench/; without them it fails and
# nothing is run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

if [ -z "${PERFBENCH_COMMIT:-}" ] && [ -e "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
	export PERFBENCH_COMMIT
fi

exec "$out/perfbench" "$@"
