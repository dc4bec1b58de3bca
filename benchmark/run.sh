#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given flags.
# Everything the go command writes (build cache, temporary files, module
# cache, its own counters under the user configuration directory) and the
# binary stay under .bench_build/. BENCHMARK.json names this script as the
# benchmark's command.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
# A checkout that is no repository of its own has no commit: git must not
# look for one in the directories above it.
commit=$(GIT_CEILING_DIRECTORIES=$(dirname "$root") git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go build -C "$root/benchmark" -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/bugnet-benchmark" .
exec "$build/bugnet-benchmark" "$@"
