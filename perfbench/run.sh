#!/usr/bin/env bash
# Builds the benchmark driver and the offloadd daemon from the checkout's
# sources, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload decide-stream --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout:
# the Go build cache, the binaries, recorded fingerprints and span exports.
set -euo pipefail

root=$(pwd)
work="$root/.bench_build"
mkdir -p "$work/bin" "$work/tmp" "$work/config"
export GOCACHE="$work/gocache" GOPATH="$work/gopath" GOMODCACHE="$work/gopath/pkg/mod"
export GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$work/bin/perfbench" . && go build -o "$work/bin/offloadd" offload/cmd/offloadd)

exec "$work/bin/perfbench" --root "$root" --bin "$work/bin" --work "$work" "$@"
