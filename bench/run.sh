#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout it is run in and runs it
# with the given arguments. Run it from the repository root:
#
#	bash bench/run.sh --workload crr-exact-hepph --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binary, generated inputs and rep outputs all live
# under .bench_build/ in the checkout, so nothing is read from or written to
# the rest of the machine. Outside a full checkout the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# obs.CaptureEnv asks git for the commit; keep it from climbing out of the
# checkout into an unrelated enclosing repository.
export GIT_CEILING_DIRECTORIES=${root%/*}

go -C "$root/bench" build -o "$build/edgeshed-bench" .
exec "$build/edgeshed-bench" -dir "$build" "$@"
