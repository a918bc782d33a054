#!/usr/bin/env bash
# Builds dita-serve and the perfbench binary from this checkout's sources
# and runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload grid-bk-8k --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files all live
# under .bench_build/ in the checkout; nothing is written elsewhere.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/dita-serve || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a dita checkout (go.mod, cmd/dita-serve and perfbench/ must exist)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GOTELEMETRY=off

go build -o "$out/bin/dita-serve" ./cmd/dita-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -serve-bin "$out/bin/dita-serve" -scratch "$out" "$@"
