#!/usr/bin/env bash
# Builds the reference benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload knn-cad16-hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10 --workload ingest-cad16-wal --seconds 20
#
# Run it from the repository root. Every build and run artifact stays
# under .bench_build/ in the current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"

# Keep the toolchain hermetic: local toolchain only, no module downloads,
# and the build cache inside the checkout.
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp"

go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
