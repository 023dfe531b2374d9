#!/usr/bin/env bash
# Builds perfbench from the source tree it sits in and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-sweep --seed 1 --seconds 30 --trace 0
#
# The build and every file a run writes stay under .bench_build/ in the
# current directory. Outside a crocus checkout the build cannot find the
# crocus module (../go.mod), so the command fails without a result.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's settings and telemetry
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
