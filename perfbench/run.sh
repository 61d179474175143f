#!/usr/bin/env bash
# Builds the benchmark and the driftserve binary under .bench_build/ in
# the repository root, then runs the benchmark with the given flags.
#
# Usage (from the repository root):
#
#	bash perfbench/run.sh --workload batch|trickle|serve-hot|serve-cold|all \
#	    --seed N --seconds S --trace 0|1
#
# Every build product, cache and temporary file stays under .bench_build/.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/driftserve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/driftserve and perfbench/ must exist)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/bin"
# XDG_CONFIG_HOME keeps the go command's env file and telemetry counters
# inside the checkout too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly

go build -o "$build/bin/driftserve" ./cmd/driftserve
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -driftserve "$build/bin/driftserve" "$@"
