#!/usr/bin/env bash
# Builds the ARGO benchmark from the sources of this checkout and runs
# it; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload cold-compile --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare parent.txt change.txt
#
# Build outputs and the Go build cache stay inside the checkout, under
# .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/argoperf" .)
cd "$root"
exec "$build/argoperf" "$@"
