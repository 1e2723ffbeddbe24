#!/usr/bin/env bash
# Builds the benchmark and the noctestd server from this checkout's
# sources, then runs one workload:
#
#   bash benchmark/run.sh --workload plan_full --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build outputs, the Go build cache,
# traces and journals all stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/go-cache GOPATH=$out/go-path GOMODCACHE=$out/go-path/mod
export XDG_CONFIG_HOME=$out/config GOTMPDIR=$out/tmp GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/noctestd" ]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/noctestd here)" >&2
	exit 1
fi
go build -C "$root/benchmark" -o "$out/nocbench" .
go build -C "$root" -o "$out/noctestd" ./cmd/noctestd
exec "$out/nocbench" --noctestd "$out/noctestd" --out "$out" "$@"
