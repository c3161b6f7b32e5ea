#!/usr/bin/env bash
# Builds cmd/carserved and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload rank_zipf --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes lives
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
[ -f "$root/go.mod" ] && [ -d "$root/cmd/carserved" ] || { echo "run.sh: run from the repository root" >&2; exit 2; }

out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOWORK=off GOPROXY=off CGO_ENABLED=0
go build -o "$out/carserved" ./cmd/carserved
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -carserved "$out/carserved" -workdir "$out" "$@"
