#!/usr/bin/env bash
# Wall-clock benchmark of the served path (see perfbench/METRICS.md).
#
# Run from the repository root:
#
#	bash perfbench/run.sh --workload full-legalize --seed 1 --seconds 25 --trace 0
#
# It builds cmd/flexserve and the load generator from this checkout's source
# into .bench_build/ (the Go build cache lives there too, so nothing is
# written outside the checkout), then runs one measurement. The last line of
# standard output is the JSON result.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/flexserve" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/flexserve here)" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# With telemetry on, each go command may fork a detached upload child that
# outlives this script; turning it off keeps every process a child we wait for.
echo off >"$out/config/go/telemetry/mode"

go build -o "$out/bin/flexserve" ./cmd/flexserve >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -flexserve "$out/bin/flexserve" -out "$out" "$@"
