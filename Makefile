# Tier-1 verification for this repo.  `make ci` is what a reviewer (or a
# CI job) runs: vet, build, the full test suite (its source check,
# internal/ddetect/sitemap_test.go, is the repo's one lint rule) under
# the race detector — internal/live, the registry and the clock are
# used from more than one goroutine, and the occurrence pool's single-owner rule is only
# checkable there — the pipeline determinism regressions by name so a
# renamed or skipped test fails loudly, the exact allocation gates (which
# need a build without the race detector), and two end-to-end smoke
# runs.  Performance numbers come from the system benchmark, `go run
# ./benchmark`, not from this file.

GO ?= go

.PHONY: ci vet build test race determinism obs-determinism trace-overhead allocs scale-smoke guard-smoke

ci: vet build race determinism obs-determinism allocs scale-smoke guard-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The golden occurrence-stream and span-stream digests of the canonical
# scenario and the pooling differentials (internal/ddetect/
# determinism_test.go), and the release rule against its g + 1 oracle
# (internal/ddetect/reorder_test.go), by name.  Each named test must
# report PASS: a renamed or skipped one fails this target.
determinism:
	@mkdir -p bin
	$(GO) test -race -run 'TestPipelineDeterminism|TestPoolingDeterminism|TestTracerComposesWithPooling|TestSiteOrderedReleaseMatchesThreshold' -v ./internal/ddetect > bin/determinism.log \
		|| { cat bin/determinism.log; exit 1; }
	@grep -- '^--- \|^ok' bin/determinism.log
	@for t in TestPipelineDeterminism TestPoolingDeterminism TestTracerComposesWithPooling TestSiteOrderedReleaseMatchesThreshold; do \
		grep -q -- "^--- PASS: $$t " bin/determinism.log || { echo "determinism: $$t did not run"; exit 1; }; \
	done

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
# Not a `ci` prerequisite: on a shared 2-vCPU machine it is noisy on
# unchanged code (EXPERIMENTS.md quotes the range), so run it by name.
# ROADMAP item 1(b) replaces it with a like-for-like measurement.
trace-overhead:
	SENTINEL_TRACE_OVERHEAD=1 $(GO) test -run 'TestTraceOverheadSmoke' -v .

# The exact allocation budgets: one testing.AllocsPerRun gate per kernel
# whose count per call is fixed, in the package that owns it.  The bounds
# live in the tests, not here.  Under -race sync.Pool drops puts, so the
# gates that lean on it skip there and run here without the race
# detector.  Every named gate must report PASS: a renamed or skipped
# gate fails this target.
ALLOC_GATES := TestSetStampAlgebraAllocs|TestPoolCycleAllocs|TestBusCrankAllocs|TestCodecAllocs|TestAppendBatchSteadyStateZeroAlloc|TestNotSpoiledStateAllocs|TestOperatorAllocs|TestManyDefinitionsAllocs|TestInstrumentAllocs|TestHeartbeatTickZeroAlloc|TestReorderAllocs|TestSustainedCrankAllocs|TestAppendAllocs|TestScanAllocs
ALLOC_PKGS := ./internal/core ./internal/event ./internal/network ./internal/wire \
	./internal/detector ./internal/obs ./internal/ddetect ./internal/eventlog

allocs:
	@mkdir -p bin
	$(GO) test -count=1 -v -run '^($(ALLOC_GATES))$$' $(ALLOC_PKGS) > bin/allocs.log \
		|| { cat bin/allocs.log; exit 1; }
	@grep -- '--- \|allocs' bin/allocs.log
	@for t in $(subst |, ,$(ALLOC_GATES)); do \
		grep -q -- "--- PASS: $$t " bin/allocs.log || { echo "allocs: $$t did not run"; exit 1; }; \
	done

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
