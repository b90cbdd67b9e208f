#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload sat|imp|check|update --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything it builds or writes stays under
# .bench_build/ (or $CARGO_TARGET_DIR when set): the Go build cache, the
# binary, the generated inputs and the traced run's spans.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp"

# perfbench is a module of its own that replaces repro with the checkout
# (../), so it builds outside the repository's go.work and never downloads.
# The go command's caches, temporary files and user configuration
# (telemetry) are kept under $out as well.
(cd perfbench && GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local \
	GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -out "$out" "$@"
