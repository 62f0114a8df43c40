#!/usr/bin/env bash
# BENCHMARK.json's command: `go run ./cmd/adaedge-e2e` from the checkout
# root. The benchmark contract lets a run write only inside its checkout,
# so the Go build cache and the toolchain's temporary files go under
# .bench_build/ there instead of $HOME and /tmp.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp"
exec go run ./cmd/adaedge-e2e "$@"
