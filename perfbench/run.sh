#!/usr/bin/env bash
# Builds the benchmark and the serving daemon from the checkout's source,
# then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload campaign-small --seed 1 --seconds 45 --trace 0
#
# Every build and run output stays inside the checkout, under the build
# directory ($CARGO_TARGET_DIR when set, .bench_build otherwise).
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$build"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOTELEMETRY=off
mkdir -p "$GOTMPDIR"

# The benchmark is a module of its own that builds the repository's
# packages from ../ (see perfbench/go.mod).
go build -C perfbench -o "$build/perfbench" .
go build -C perfbench -o "$build/metascriticd" metascritic/cmd/metascriticd

exec "$build/perfbench" --build-dir "$build" "$@"
