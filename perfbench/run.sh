#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it, passing the
# arguments through (--workload, --seed, --seconds, --trace). Run it from
# the root of the repository. The binary, the Go build cache and the
# store logs all stay under .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local
mkdir -p "$GOTMPDIR"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --dir "$out/run" "$@"
