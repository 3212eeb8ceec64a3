#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments, for example:
#
#   bash simbench/run.sh --workload torus4-sweep --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. The binary and every Go cache and
# temporary file go under $CARGO_TARGET_DIR (default .bench_build), so
# nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/simbench" ]]; then
	echo "simbench: run from the repository root (go.mod and simbench/ needed)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$out" = /* ]] || out="$root/$out"
mkdir -p "$out/home" "$out/gocache" "$out/gopath" "$out/tmp"

export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/simbench" ./simbench
exec "$out/simbench" "$@"
