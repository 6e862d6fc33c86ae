#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the traced run's span table and CPU
# profile all go under .bench_build/ at the root of the checkout. The build
# is offline: the repository has no module dependencies.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root holds no spandex sources to build" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local \
	GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# One P, and stop-the-world GC so that heap growth, and with it max_rss_mb
# and the GC cycle count, does not depend on when the mark worker was
# scheduled. perfbench refuses to measure without it.
export GOMAXPROCS=1 GODEBUG=gcstoptheworld=1
exec "$out/perfbench" -trace-dir "$out" "$@"
