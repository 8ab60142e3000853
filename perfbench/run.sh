#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload emu-ps-mux-w32 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The build cache and binary live in
# .bench_build/ there, so nothing is read or written outside the checkout
# beyond the Go toolchain itself. The benchmark module builds the program
# from the enclosing checkout (replace prophet => ../), so the build fails,
# and the script exits non-zero without a result, when that is missing.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=$(pwd)/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The checkout the benchmark runs in may not be a git repository: stamp the
# commit when git can tell it, and keep the toolchain's own VCS probe off.
commit=$(git -C "$here" describe --always --dirty --abbrev=40 2>/dev/null || echo unknown)
(cd "$here" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
