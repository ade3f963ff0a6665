#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload observe-mix --seed 1 --seconds 24 --trace 0
#
# Build outputs, the Go build cache and run artifacts stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomod" XDG_CONFIG_HOME="${out}/config"

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" --out "${out}" "$@"
