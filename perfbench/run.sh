#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload wire-dispatch --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.jsonl .bench_build/ledger.jsonl
#
# Everything the build and the run leave behind goes to .bench_build/ at
# the checkout root; nothing is fetched.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOPROXY=off \
	GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -trimpath -o "$out/ftbench" .)
cd "$root"
exec "$out/ftbench" "$@"
