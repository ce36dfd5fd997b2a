#!/usr/bin/env bash
# Builds perfbench from source into .bench_build/ and runs it, passing all
# arguments through. Run from the repository root:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/: the Go
# build cache, the binary, result records, span files and scratch. The
# toolchain is used as installed (GOTOOLCHAIN=local), so nothing is fetched.
set -euo pipefail

root=$(pwd)
build="${root}/.bench_build"
mkdir -p "${build}"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
export GOCACHE="${build}/go-cache"
export GOPATH="${build}/go-path"
export XDG_CONFIG_HOME="${build}/config"

(cd "${root}/perfbench" && go build -o "${build}/perfbench" .)
exec "${build}/perfbench" --out "${build}" "$@"
