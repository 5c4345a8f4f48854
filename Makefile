# Tier-1 verification for this repo.  `make ci` is what a reviewer (or a
# CI job) runs: vet, lint, build, the full test suite under the race
# detector — internal/live, the registry and the clock are used from more
# than one goroutine, and the occurrence pool's single-owner rule is only
# checkable there — the pipeline determinism regression explicitly by name
# so a renamed or skipped test fails loudly, the compiler escape-analysis
# gate, and the allocs/op budget inside bench-smoke.

GO ?= go
LINT := bin/sentinel-lint
BENCHJSON := bin/benchjson

.PHONY: ci vet lint build test race determinism obs-determinism trace-overhead escape-gate bench bench-smoke bench-diff scale-smoke guard-smoke

ci: vet lint build race determinism obs-determinism escape-gate bench-smoke scale-smoke guard-smoke

vet:
	$(GO) vet ./...

# The repo's own analyzer suite (walltime, stampcmp, mapiter, sitemap,
# stagefx, obsfx, hotalloc — see DESIGN.md "Enforced invariants"),
# driven through the go vet unit-checker protocol so test variants are
# covered too and per-package facts flow bottom-up for the
# interprocedural checks.
lint:
	$(GO) build -o $(LINT) ./cmd/sentinel-lint
	$(GO) vet -vettool=$(LINT) ./...

# Compiler-proven heap escapes in the hot packages, diffed against the
# committed escape.manifest.  A new or increased escape fails; shrink
# the manifest with `go run ./cmd/escapegate -update` after reviewing.
escape-gate:
	$(GO) run ./cmd/escapegate

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The golden occurrence-stream and span-stream digests of the canonical
# scenario and the pooling differentials (internal/ddetect/
# determinism_test.go), by name.
determinism:
	$(GO) test -race -run 'TestPipelineDeterminism|TestPoolingDeterminism|TestTracerComposesWithPooling' -v ./internal/ddetect

# The PR-5 tentpole regression: the full observability stack (tracer into
# span log + flight recorder, metrics registry) must be a pure observer —
# byte-identical occurrence logs with it attached or detached, and a span
# stream identical pooled or unpooled and at every sampling rate.
obs-determinism:
	$(GO) test -race -run 'TestObsDeterminism' -v ./internal/ddetect

# A real-sink tracer at 1% head sampling must cost <3% on the *pooled*
# pipeline workload (minima of interleaved runs); the test self-skips
# without the env gate.  Both arms run pooled — the PR-10 generation-keyed
# span identity removed the tracer-disables-pooling interlock.
# Not a `ci` prerequisite: on the shared 2-vCPU box it reads 7–16 % on
# unchanged code, so it failed at parent and change alike; run it by name.
# ROADMAP item 1(b) replaces it with a like-for-like measurement.
trace-overhead:
	SENTINEL_TRACE_OVERHEAD=1 $(GO) test -run 'TestTraceOverheadSmoke' -v .

# Full benchmark run (root harness + eventlog + transport + obs layers),
# archived machine-readably at the repo root.  BENCH_pr9.json, when
# present, is embedded so the report carries its own before/after
# comparison of the PR-10 traced-while-pooled hot path (plus the new
# BenchmarkSustainedThroughputTraced arm, which has no PR-9 row).
BENCH_PKGS := . ./internal/detector ./internal/event ./internal/eventlog ./internal/network ./internal/wire ./internal/obs

bench:
	$(GO) build -o $(BENCHJSON) ./cmd/benchjson
	$(GO) test -bench . -benchmem -benchtime=200ms -count=3 -run '^$$' $(BENCH_PKGS) \
		| tee /tmp/bench_pr10.txt
	$(BENCHJSON) -out BENCH_pr10.json \
		$$(test -f BENCH_pr9.json && echo -baseline BENCH_pr9.json) \
		< /tmp/bench_pr10.txt

# Smoke pass doubling as the perf budget: every benchmark must run to
# completion, no benchmark's allocs/op may grow more than 5% over the
# archived BENCH_pr10.json baseline, the sustained-throughput gate must
# clear 1M events/sec — including the new traced arm, so the floor holds
# with a 1%-sampled tracer attached — the multi-tenant dispatch gate must
# clear 10k dispatches/sec on every BenchmarkManyDefinitions cell (the
# 10k-def cells would fail this before interned dispatch), and every
# benchmark reporting a pool-hit-rate must stay ≥0.95: the pool keeps
# absorbing the hot path with a tracer attached (sync.Pool misses are
# GC-timing-dependent, hence the headroom below the typical 1.0).
# 100 iterations, not 1, so one-time warmup allocations (pool fills,
# lazy maps, buffer growth) amortize out of the per-op average instead
# of reading as phantom regressions — at 20x the residue still inflated
# small benchmarks by a whole alloc/op.
bench-smoke:
	$(GO) build -o $(BENCHJSON) ./cmd/benchjson
	$(GO) test -bench . -benchmem -benchtime=100x -run '^$$' $(BENCH_PKGS) > /tmp/bench_smoke.txt
	$(BENCHJSON) -out /tmp/bench_smoke.json < /tmp/bench_smoke.txt
	$(BENCHJSON) -compare -max-alloc-regress 5 -min-metric events/sec=1000000 \
		-min-metric dispatch/sec=10000 -min-metric pool-hit-rate=0.95 \
		BENCH_pr10.json /tmp/bench_smoke.json > /dev/null

# Delta table between the archived PR-9 and PR-10 benchmark runs.
bench-diff:
	$(GO) build -o $(BENCHJSON) ./cmd/benchjson
	$(BENCHJSON) -compare BENCH_pr9.json BENCH_pr10.json

# The PR-6 scale deliverable as a CI gate: a 512-site end-to-end run must
# complete (and stay fast — the timeout is the assertion; before the dense
# roster refactor this configuration did not finish in minutes).
scale-smoke:
	$(GO) build -o bin/distsim ./cmd/distsim
	timeout 60 bin/distsim -sites 512 -events 2000 > /dev/null

# distsim's own default rule set (Guard is a NOT that keeps its spoiled
# initiators) at 16 sites: the timeout is the assertion.  The run takes
# under a second while a terminator costs one comparison per retained
# initiator; one per (initiator, spoiler) pair does not finish in minutes.
guard-smoke:
	$(GO) build -o bin/distsim ./cmd/distsim
	timeout 60 bin/distsim -sites 16 -events 30000 > /dev/null
