#!/usr/bin/env bash
# Builds analogflowd and the benchmark from the source in this checkout, then
# runs one benchmark invocation.  Run from the repository root:
#
#   bash perfbench/run.sh --workload rmat-oneshot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR when set, .bench_build otherwise).
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/config" "$build/spans"
# XDG_CONFIG_HOME keeps the go command's telemetry and env files in here too.
# Both modules use only the standard library, so the build never downloads.
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

cd "$root/perfbench"
go build -o "$build/bin/analogflowd" analogflow/cmd/analogflowd
go build -o "$build/bin/perfbench" .
cd "$root"

workload=unknown
for ((i = 1; i < $#; i++)); do
	if [[ ${!i} == --workload || ${!i} == -workload ]]; then
		j=$((i + 1))
		workload=${!j}
	fi
done
exec "$build/bin/perfbench" -server "$build/bin/analogflowd" -spans "$build/spans/$workload.json" "$@"
