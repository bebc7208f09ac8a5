#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload service --seed 3 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it writes (the Go build
# cache, the binary, traces, results, scratch files) stays under
# $CARGO_TARGET_DIR, default .bench_build, in the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomod GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOENV=off \
	GOTELEMETRY=off CGO_ENABLED=0

if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run this from the root of a gpushare checkout" >&2
	exit 1
fi
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build" "$@"
