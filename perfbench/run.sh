#!/usr/bin/env bash
# Builds autopn-server and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
#
# Everything the build and the runs write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the checkout, Go's build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/autopn-server || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/autopn-server and perfbench/ not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" GOCACHE="$out/gocache" \
	GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
mkdir -p "$HOME" "$GOTMPDIR"

go build -o "$out/bin/autopn-server" ./cmd/autopn-server
go build -o "$out/bin/perfbench" ./perfbench
if [[ "${1:-}" == compare ]]; then
	exec "$out/bin/perfbench" "$@"
fi
exec "$out/bin/perfbench" -server "$out/bin/autopn-server" -work "$out/perfbench" -out "$out/perfbench/results.jsonl" "$@"
