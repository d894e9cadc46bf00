#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it.
# Run from the repository root; arguments pass through to perfbench:
#
#   bash perfbench/run.sh --workload firehose --seed 1 --seconds 28 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
# Build output goes to stderr so the last stdout line stays the result.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
