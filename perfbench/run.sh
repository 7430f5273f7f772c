#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload trace-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, binary, span files) goes
# under .bench_build in the current directory.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTELEMETRY=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
