#!/usr/bin/env bash
# Builds cmd/stmkv and the benchmark from this checkout's source into
# .bench_build/, then runs the benchmark with the given arguments, e.g.
#
#   bash stmkvbench/run.sh --workload stm-list --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Every file the toolchain and the
# benchmark write stays under .bench_build/.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/stmkv || ! -f stmkvbench/go.mod ]]; then
	echo "stmkvbench: run from the repository root of a full checkout" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOFLAGS=-mod=mod GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C stmkvbench build -o "$out/stmkv" repro/cmd/stmkv
go -C stmkvbench build -o "$out/stmkvbench" .
exec "$out/stmkvbench" -server "$out/stmkv" -workdir "$out" "$@"
