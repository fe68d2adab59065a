#!/usr/bin/env bash
# Build file and launcher of the benchmark: compiles ./benchmark from
# source into .bench_build/ and runs it with the given arguments.
#
#   bash benchmark/run.sh --workload dns_slab --seed 14 --seconds 10 --trace 0
#
# Everything the build writes stays inside the working tree: the binary,
# Go's build cache and the go command's own configuration and telemetry
# counters all live under .bench_build/. Run it from the repository
# root; anywhere else there is no go.mod and the build fails.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: no go.mod and internal/ here: the benchmark builds against the repository's own packages, run it from the repository root" >&2
	exit 1
fi
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
go build -ldflags "-X main.commit=$commit" -o .bench_build/nektar-benchmark ./benchmark
exec .bench_build/nektar-benchmark "$@"
