#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, from
# the root of a checkout:
#
#   bash bench/run.sh --workload tt-unbiased --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binary, profiles and temporary stores.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off GOFLAGS=
(cd bench && go build -o "$out/flashwalker-bench" .)
exec "$out/flashwalker-bench" "$@"
