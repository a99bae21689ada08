#!/usr/bin/env bash
# Builds the system under test (srsched, srschedd, experiments) and the
# benchmark program from source, then runs one workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload serve-small --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the binaries, scratch inputs and the
# result files. Build output goes to stderr, so the last line of stdout
# is always the benchmark's JSON result line.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/home"

# Keep the toolchain inside the checkout and off the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/srsched ./cmd/srschedd ./cmd/experiments >&2
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" "$@"
