#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run leave behind (Go build cache, temp dirs, the binary, journal files)
# stays under .bench_build/ in the checkout; nothing is read or written
# outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/psharp-bench" .)
cd "$root"
exec "$build/psharp-bench" "$@"
