#!/usr/bin/env bash
# Builds the KV benchmark from the source tree it sits in and runs it from the
# repository root with the arguments given, e.g.
#
#   bash kvbench/run.sh --workload kv-mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories, trace files) stays under $CARGO_TARGET_DIR, default
# .bench_build, relative to the current directory.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
work=${CARGO_TARGET_DIR:-.bench_build}
case $work in /*) ;; *) work=$root/$work ;; esac
mkdir -p "$work/gotmp"
export GOCACHE=$work/gocache GOPATH=$work/gopath GOTMPDIR=$work/gotmp XDG_CONFIG_HOME=$work/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd "$here" && go build -o "$work/kvbench" .) >&2
exec "$work/kvbench" --work-dir "$work" "$@"
