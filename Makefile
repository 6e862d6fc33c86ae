# Local mirror of .github/workflows/ci.yml: `make ci` runs the exact gate
# contributors are held to on push/PR.

GO ?= go

.PHONY: ci build vet fmt lint test race smoke check bench bench-json \
	bench-gate clean \
	graph graph-check mcheck mcheck-smoke mcheck-baseline \
	mutants crosscheck \
	trace-smoke trace-overhead fuzz fuzz-mutants corpus scale-smoke

ci: build vet fmt lint test race smoke check graph-check \
	mcheck-smoke mutants trace-smoke fuzz fuzz-mutants scale-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project analyzers (cmd/spandex-lint): determinism, protostate, mutafter,
# poolret, annref.
lint:
	$(GO) run ./cmd/spandex-lint ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

test:
	$(GO) test ./...

# FastParams-sized race gate: -short skips the full-size figure sweeps but
# keeps the parallel sweep runner tests, which are the point.
race:
	$(GO) test -race -short ./...

# Full evaluation path: every (workload, config) cell validated against
# its oracle while the same run records every (LLC state, message) pair it
# exercised, cross-checked against the static transition graph; then
# sampled cells re-checked for bit-identical results under contention.
smoke:
	$(GO) run ./cmd/spandex-bench -headline -parallel 4 -validate -coverage-out /tmp/sweep-cov.json
	$(GO) run ./cmd/spandex-graph -diff /tmp/sweep-cov.json
	$(GO) run ./cmd/spandex-bench -verify-determinism -parallel 4

# Invariant-checked smoke on Table VI's machine: litmus plus one headline
# workload per figure under -check (per-transition SWMR/disjointness audit
# on every LLC state change), each validated against its oracle; any
# violation exits non-zero.
check:
	$(GO) run ./cmd/spandex-trace -config SDD -workload litmus -check
	$(GO) run ./cmd/spandex-trace -config SMD -workload litmus -check
	$(GO) run ./cmd/spandex-trace -config SDD -workload pr -check

bench:
	$(GO) test -bench=. -benchmem ./...

# Checked-in benchmark snapshot: run the paired gate and copy its record to
# BENCH_<yyyymmdd>_<shortsha>.json at the repo root. Commit the file to
# extend the performance trajectory.
bench-json: bench-gate
	cp .bench_build/bench_pair.json BENCH_$$(date -u +%Y%m%d)_$$(git rev-parse --short HEAD).json

# Paired perf gate (the CI bench-gate job, ~10 min on 2 vCPUs): perfbench's
# three workloads at HEAD, HEAD~1 and the pinned anchor, in rotating rounds
# on this host; see scripts/bench_pair.sh for the rule.
bench-gate:
	./scripts/bench_pair.sh

# Regenerate every static graph artifact from one load of the protocol
# packages: docs/transitions/ (per-controller transition graphs),
# docs/msgflow/ (the whole-system message-flow graph) and docs/indep/ plus
# internal/mcheck/indep_tables.go (the independence facts the model
# checker's partial-order reduction consumes). Fails on any flow
# violation: completeness (every emitted message handled at every
# reachable receiver state or proven unreachable), deadlock-freedom (no
# dependency cycle made entirely of deferrable hops) or stall-safety
# (every blocking wait has a progress supplier).
graph:
	$(GO) run ./cmd/spandex-graph

# Static-graph gate: every artifact must match the source byte-for-byte
# with no orphans beside them, the flow checks must report zero
# violations, and each seeded protocol bug mirrored on the flow graph
# must surface as at least one violation. A protocol change that moves
# the derived independence facts fails here until the artifacts, and the
# reduction's soundness assumptions, are regenerated and re-reviewed.
graph-check:
	$(GO) run ./cmd/spandex-graph -check

# Exhaustive model check: every CPU×GPU protocol pairing, every scenario,
# all message interleavings up to the state budget.
mcheck:
	$(GO) run ./cmd/spandex-mcheck

# CI-budgeted model check (~1 s once built: three ~0.3 s passes, the
# fastest timed): every pairing × scenario under the full reduction, gated
# against the checked-in count/runtime baseline, then the
# static-vs-dynamic coverage cross-check on what the first pass observed.
mcheck-smoke:
	$(GO) run ./cmd/spandex-mcheck -coverage-out /tmp/mcheck-cov.json \
		-json /tmp/mcheck-stats.json -baseline docs/mcheck/baseline.json
	$(GO) run ./cmd/spandex-graph -diff /tmp/mcheck-cov.json

# Refresh the checked-in mcheck state/runtime baseline (docs/mcheck/; the
# time is the fastest of three passes). Run after a reviewed protocol or
# scenario change trips the gate.
mcheck-baseline:
	$(GO) run ./cmd/spandex-mcheck -json docs/mcheck/baseline.json

# Observability smoke on the FastParams machine (-fast): export a
# Perfetto/Chrome timeline from an observed run and re-validate it (JSON
# loads, every async slice closed, ends after begins); render the latency
# + metrics summary, the heatmap and the top contended lines; export the
# metrics JSONL and re-validate it; and check two runs against each other
# with the summary differ (must report bit-identical measurements).
trace-smoke:
	$(GO) run ./cmd/spandex-trace -fast -mode export -workload indirection -config SDD -o /tmp/spandex-trace.json
	$(GO) run ./cmd/spandex-trace -mode validate -in /tmp/spandex-trace.json
	$(GO) run ./cmd/spandex-trace -fast -mode summarize -workload tqh -config SDD
	$(GO) run ./cmd/spandex-trace -fast -mode heatmap -workload indirection -config SDD
	$(GO) run ./cmd/spandex-trace -fast -mode lines -top 10 -workload tqh -config SMD
	$(GO) run ./cmd/spandex-trace -fast -mode metrics -format jsonl -workload indirection -config SDD -o /tmp/metrics-export.jsonl
	$(GO) run ./cmd/spandex-trace -mode validate -in /tmp/metrics-export.jsonl
	rm -f /tmp/spandex-summary.jsonl
	$(GO) run ./cmd/spandex-trace -fast -mode summarize -workload indirection -config SDD -summary-out /tmp/spandex-summary.jsonl
	$(GO) run ./cmd/spandex-trace -fast -mode summarize -workload indirection -config SDD -diff /tmp/spandex-summary.jsonl | grep -q "bit-identical"

# Report-only: what Options.Observe costs one headline cell. The < 2%
# disabled-overhead target is the bench gate's paper-sweep ratio against
# HEAD~1, which perfbench measures with observation off.
trace-overhead:
	$(GO) test -run '^$$' -bench BenchmarkRunObserve -benchtime 3x .

# Scalability smoke: the N-device/banked-LLC/mesh test surface (64-device
# serial-vs-parallel determinism, legacy 9x6 fingerprint pins, per-bank
# determinism, topology timing-only), then a validated scalemix sweep of
# one Spandex config across the 8..64-device ScaleParams points.
scale-smoke:
	$(GO) test -run 'TestScale|TestLegacyFingerprintsPinned|TestBankedDeterminism|TestTopologyChangesTimingOnly' .
	$(GO) run ./cmd/spandex-bench -scale -scale-configs SDD -validate

# Mutation detection: re-arm two seeded protocol bugs (drop invalidation
# ack, skip RvkO forward) behind the spandexmut build tag and require the
# model checker to catch each with a concrete interleaving trace.
mutants:
	$(GO) test -tags spandexmut ./internal/mcheck -run TestMutation

# Differential conformance fuzzing (CI-budgeted): a fixed seed range of
# random DRF programs, each run on all six configurations and required to
# behave observationally identically; a second pass shrinks every cache to
# a few lines (-pressure) so evictions and write-backs dominate — the
# regime that exposed the stale-RspRvkO, MPutM-window, and Inv-overtaking-
# grant races — and a third shards the Spandex LLC into two tiny banks on
# a mesh NoC so those races cross bank boundaries. Every (state, message)
# pair the three passes observed is then cross-checked against the static
# transition graph.
fuzz:
	$(GO) run ./cmd/spandex-fuzz -seeds 0:10000 -coverage-out /tmp/fuzz-cov.json
	$(GO) run ./cmd/spandex-fuzz -seeds 0:2500 -pressure -coverage-out /tmp/fuzz-pressure-cov.json
	$(GO) run ./cmd/spandex-fuzz -seeds 0:2500 -banks 2 -pressure -coverage-out /tmp/fuzz-banked-cov.json
	$(GO) run ./cmd/spandex-graph -diff /tmp/fuzz-cov.json,/tmp/fuzz-pressure-cov.json,/tmp/fuzz-banked-cov.json

# Fuzzer mutation detection: with each seeded protocol bug armed, the
# fuzzer must find, shrink, and deterministically replay a failing case
# within the seed budget (also asserted as go tests for CI visibility).
fuzz-mutants:
	$(GO) run -tags spandexmut ./cmd/spandex-fuzz -mutate dropinvack -seeds 0:500 -out /tmp/conform-mutants
	$(GO) run -tags spandexmut ./cmd/spandex-fuzz -mutate skiprvko -seeds 0:500 -out /tmp/conform-mutants
	$(GO) test -tags spandexmut ./internal/conform -run TestMutant

# Regenerate the checked-in litmus corpus (testdata/conform/) from
# internal/conform/corpus.go.
corpus:
	$(GO) run ./cmd/spandex-fuzz -write-corpus testdata/conform

# Full cross-check: headline sweep coverage + mcheck coverage vs the
# statically extracted LLC graph.
crosscheck:
	$(GO) run ./cmd/spandex-bench -headline -parallel 4 -coverage-out /tmp/sweep-cov.json
	$(GO) run ./cmd/spandex-mcheck -coverage-out /tmp/mcheck-cov.json
	$(GO) run ./cmd/spandex-graph -diff /tmp/sweep-cov.json,/tmp/mcheck-cov.json

clean:
	$(GO) clean ./...
