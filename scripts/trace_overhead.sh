#!/usr/bin/env bash
# Report-only observation overhead guard (make trace-overhead / CI
# trace-smoke).
#
# Two measurements land in the job log:
#
#  1. The in-tree BenchmarkRunObserveDisabled / BenchmarkRunObserveEnabled
#     pair: what Options.Observe (latency phase machine plus metrics
#     registry) costs one headline cell.
#  2. The headline sweep's wall time at HEAD versus the parent commit,
#     both with observation disabled (the default every user gets). This
#     is the number the < 2% disabled-overhead target applies to: the
#     instrumented sites must reduce to nil checks.
#
# The guard never fails the build — shared-runner noise makes a hard 2%
# gate flaky — it reports for humans (and trend tooling) to watch.
set -u
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'git worktree remove --force "$work/base-src" >/dev/null 2>&1 || true; rm -rf "$work"' EXIT

run_ms() { # run_ms <bench-binary> -> best-of-3 wall ms for the headline sweep
	local bin=$1 best=0 t0 t1 dt i
	for i in 1 2 3; do
		t0=$(date +%s%3N)
		"$bin" -headline -parallel 4 >/dev/null 2>&1 || return 1
		t1=$(date +%s%3N)
		dt=$((t1 - t0))
		if [ "$best" -eq 0 ] || [ "$dt" -lt "$best" ]; then best=$dt; fi
	done
	echo "$best"
}

echo "== observation disabled vs enabled (one cell, in-tree benchmarks) =="
go test -run '^$' -bench BenchmarkRunObserve -benchtime 3x . || true
echo

if ! go build -o "$work/bench-head" ./cmd/spandex-bench; then
	echo "trace-overhead: HEAD build failed" >&2
	exit 1
fi

base=$(git rev-parse --quiet --verify 'HEAD~1^{commit}' || true)
if [ -z "$base" ]; then
	echo "trace-overhead: no parent commit available; skipping baseline comparison"
	exit 0
fi
if ! git worktree add --detach "$work/base-src" "$base" >/dev/null 2>&1; then
	echo "trace-overhead: cannot materialize baseline $base; skipping comparison"
	exit 0
fi
if ! (cd "$work/base-src" && go build -o "$work/bench-base" ./cmd/spandex-bench); then
	echo "trace-overhead: baseline build failed; skipping comparison"
	exit 0
fi

head_ms=$(run_ms "$work/bench-head") || { echo "trace-overhead: HEAD sweep failed"; exit 0; }
base_ms=$(run_ms "$work/bench-base") || { echo "trace-overhead: baseline sweep failed"; exit 0; }

echo "== headline sweep wall time, observation disabled (best of 3) =="
echo "baseline (${base}): ${base_ms} ms"
echo "head:                                              ${head_ms} ms"
awk -v h="$head_ms" -v b="$base_ms" 'BEGIN {
	printf "overhead: %+.2f%%  (target: < 2%% with observation disabled; report-only)\n",
		(h - b) * 100.0 / b
}'
exit 0
