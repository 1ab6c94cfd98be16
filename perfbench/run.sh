#!/usr/bin/env bash
# Builds perfbench from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary live under
# .bench_build in the checkout, so a run writes nothing outside it.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
