#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, keeping the
# Go build cache, the go command's own config and telemetry files, and every
# build output under .bench_build/ at the checkout root. Run from the
# checkout root:
#
#   bash simbench/run.sh --workload nomad_cact --seed 1 --seconds 40 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
(cd "$root/simbench" && go build -o "$out/simbench" .) >&2
exec "$out/simbench" "$@"
