#!/usr/bin/env bash
# Builds the benchmark program and the pshim self-shim from the checkout
# it is run in, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload search|journal|fleet --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes
# (Go build cache, binaries, run state, trace dumps) goes under
# $CARGO_TARGET_DIR, default .bench_build, inside the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off
mkdir -p "$GOTMPDIR"

# The build needs the repository around the benchmark (go.mod replaces
# pfuzzer with ..); without it the build fails and so does the run.
(cd "$here" && go build -o "$out/perfbench" . && go build -o "$out/pshim" pfuzzer/cmd/pshim)
exec "$out/perfbench" -out "$out" -pshim "$out/pshim" "$@"
