#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write — the Go build cache, the go command's config and telemetry,
# temp files, the binary, stores and traces — lands in .bench_build/ at the
# root of the repository.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$build/optima-bench" .)
cd "$root"
exec "$build/optima-bench" -workdir "$build" "$@"
