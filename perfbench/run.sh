#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it,
# passing every argument through (see perfbench/README.md):
#
#   bash perfbench/run.sh --workload <name|all> --seed <n> --seconds <s> --trace <0|1|both>
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/perfbench in the checkout, and the build never reaches the
# network: the benchmark module imports only the standard library and the
# repository's own module, which perfbench/go.mod replaces with "../".
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp"
export GOENV=off GOWORK=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
