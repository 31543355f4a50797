#!/usr/bin/env bash
# Builds qnpbench from the checkout this is run in and runs it with the
# given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload fig9 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (cache, temporary files, the go command's
# telemetry counters, the binary) stays under .bench_build/ in the checkout;
# the toolchain is the local one and no module is downloaded.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	go -C bench build -o "$out/qnpbench" .
# Run as a child, not through exec: Linux carries a process's peak RSS
# across exec, so an exec'd benchmark would report its caller's peak as
# its own peak_rss_mb.
"$out/qnpbench" "$@"
