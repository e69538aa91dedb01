#!/usr/bin/env bash
# Builds the abwd benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#	bash perfbench/run.sh --workload query-warm --seed 1 --seconds 10 --trace 0
#
# Every build artefact (Go build cache, module cache, temporary build
# files, toolchain configuration and the binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
