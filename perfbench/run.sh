#!/usr/bin/env bash
# Builds sesd and the perfbench load generator from the sources of
# the checkout it is run from, then runs one workload:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 30 --trace 0
#
# Build products, the Go build cache and every run's data directories
# live under .bench_build (or $CARGO_TARGET_DIR) in the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$build/bin/" ./cmd/sesd >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
