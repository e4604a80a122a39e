#!/usr/bin/env bash
# Builds awambench from source and runs it with the given arguments.
# Run from the root of a checkout, for example:
#
#   bash cmd/awambench/run.sh --workload wide_cold --seed 1 --seconds 25 --trace 0
#
# Every build product (binary, Go build cache, Go config) stays under
# .bench_build/ in the checkout. The build needs no network: the
# benchmark module depends only on the repository module, through a
# directory replace.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/cmd/awambench" && go build -o "$out/awambench" .)
exec "$out/awambench" "$@"
