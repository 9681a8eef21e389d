GO ?= go

.PHONY: all build vet lint fuzz-short test race bench bench-nfd bench-json bench-check golden examples plan plan-report shard-smoke chaos-smoke

all: build lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# The contract gate: go vet plus dapes-lint, the repo's own go/analysis-style
# suite (internal/lint, docs/CONTRACTS.md). dapes-lint machine-checks the
# four invariants every golden-trace gate depends on — kernel clock + seeded
# RNG on simulation paths (simclock), no map-iteration order reaching
# scheduling/wire/stats/sends or unsorted output slices (maporder), wire-frame
# views stay read-only and encoded packets aren't mutated without
# InvalidateWire (wireimmut), and no stored *sim.Event (handlehygiene).
# Fails on any unsuppressed diagnostic; suppress only with
# `//lint:ignore <analyzer> <reason>`. It also fails when gofmt would
# reformat any Go file.
lint: vet
	@unformatted="$$(gofmt -l *.go cmd examples internal perfbench)"; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/dapes-lint ./...

# The corpus smoke: every Fuzz* target in the tree for ~10s each, so a codec
# or parser regression against the seed corpus surfaces per-PR instead of
# never. (go test allows one fuzz target per invocation, hence one line per
# target.)
fuzz-short:
	$(GO) test -run=NONE -fuzz=FuzzTLVRoundTrip -fuzztime=10s ./internal/ndn/
	$(GO) test -run=NONE -fuzz=FuzzPlanFile -fuzztime=10s ./internal/plan/
	$(GO) test -run=NONE -fuzz=FuzzDiscoveryPayload -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzBitmapPayload -fuzztime=10s ./internal/core/
	$(GO) test -run=NONE -fuzz=FuzzFaultPlan -fuzztime=10s ./internal/fault/

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every benchmark in the tree, once each, so benches can't rot.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# The forwarder-table benchmarks at measurement length: the name-tree
# lookups must stay ≥5x below the seed implementations with 0 allocs/op
# (docs/PERFORMANCE.md).
bench-nfd:
	$(GO) test -run=NONE -bench='BenchmarkCsPrefixFind|BenchmarkFibLookup' -benchmem -benchtime=300ms ./internal/nfd/

# Machine-readable perf snapshot: wire-path, dense-broadcast, and
# event-kernel micro-benches (heap-vs-wheel churn, Timer.Reset), download
# time and total allocations for the dense urban scenarios, the
# shard-scaling section (sequential vs 2 vs 4 stripes wall-clock plus the
# 50k-node urban-metro trial), and the informational fault section (one
# urban-grid-chaos trial pricing the crash/restart hardening), as stable
# JSON; the schema lives in internal/perf. BENCH_8.json is the checked-in perf-trajectory entry for the
# fault-injection PR (BENCH_7.json the persistent-worker/window-batching
# PR's, BENCH_6.json the space-partitioned kernel's, BENCH_5.json the
# timer wheel's, BENCH_4.json the zero-copy wire path's); regenerate it
# with this target when a PR intentionally moves the numbers. Use -rebase
# (see cmd/bench-snapshot) to mark gated metrics a snapshot moves on
# purpose.
bench-json:
	$(GO) run ./cmd/bench-snapshot -issue 8 -o BENCH_8.json
	@cat BENCH_8.json

# The perf gate CI runs: re-measures and FAILS if a hardware-independent
# alloc number regressed against the committed BENCH_8.json, under the
# per-section rule table in internal/perf. It also fails if a dense
# scenario completes no download.
bench-check:
	$(GO) run ./cmd/bench-snapshot -issue 8 -check BENCH_8.json

# The plan smoke: run the committed CI plan file through the declarative
# harness with a 4-worker fan-out. The JSON-lines stream and report are
# byte-identical to -workers=1 (TestGoldenPlanDeterminism and
# TestCommittedPlansRunDeterministically pin that); this target proves the
# CLI end of the contract stays runnable in seconds.
plan:
	$(GO) run ./cmd/dapes-plan run plans/ci-smoke.toml -workers=4

# The S=1-vs-S=4 smokes share one recipe: $(call s1-vs-s4,<plan>,<name>,<message>)
# runs plans/<plan>.toml once on the single stripe (the sequential
# simulation) and once at 4 density-balanced stripes, and fails if the
# completed/downloaders columns of the two JSON-lines streams diverge. The
# relaxed S>1 trace contract lets times and transmission counts differ;
# what gets downloaded must not.
define s1-vs-s4
	$(GO) run ./cmd/dapes-plan run plans/$(1).toml -shards=1 -o /dev/null > /tmp/dapes-$(2)-1.jsonl
	$(GO) run ./cmd/dapes-plan run plans/$(1).toml -shards=4 -o /dev/null > /tmp/dapes-$(2)-4.jsonl
	@sed -E 's/.*("completed":[0-9]+,"downloaders":[0-9]+).*/\1/' /tmp/dapes-$(2)-1.jsonl > /tmp/dapes-$(2)-1.agg
	@sed -E 's/.*("completed":[0-9]+,"downloaders":[0-9]+).*/\1/' /tmp/dapes-$(2)-4.jsonl > /tmp/dapes-$(2)-4.agg
	@diff /tmp/dapes-$(2)-1.agg /tmp/dapes-$(2)-4.agg
	@echo "$(2): $(3)"
endef

# The shard-scaling smoke: the committed metro-smoke plan (urban-metro's
# 25x mix at a tiny scale) at S=1 and at the scenario's default S=4.
shard-smoke:
	$(call s1-vs-s4,metro-smoke,shard-smoke,S=1 and S=4 completion aggregates agree)

# The chaos smoke: the committed chaos-smoke plan (urban-grid-chaos with
# crashes, cold restarts, and Gilbert-Elliott bursty loss) at S=1 and
# S=4. The fault schedule is a pure function of (seed, plan) — the same
# nodes crash at the same virtual times in both runs — so completions
# under churn must agree across shard counts.
chaos-smoke:
	$(call s1-vs-s4,chaos-smoke,chaos-smoke,S=1 and S=4 completions under churn agree)

# The perf-trajectory report: load every committed BENCH_*.json snapshot,
# render the per-metric series across PRs, and fail if any gated metric
# breached between consecutive snapshots, under the same internal/perf
# rule table bench-check applies.
plan-report:
	$(GO) run ./cmd/dapes-plan report -fail-on-breach

# The determinism gates: every registered scenario's emitted JSON against
# its committed golden (testdata/golden), grid==naive and wheel==heap
# byte-identical for every registered scenario, baselines identical across
# reruns, serial==parallel and batched==lockstep sharded trials, the
# layer-level S=1 bridges (one-stripe sharded kernel and medium vs the
# plain ones), the kernel's randomized-churn equivalence properties,
# trace-neutrality of the boundary-mask cull, the forwarder's zero-alloc
# lookup contract, the completion counter held to a scan of Peer.Done
# under cold restarts (S=1 and S=2) with its zero-alloc predicate, the
# RPF running rarity counts held to a from-scratch recount and to the
# map-scan selection, the allocation-free receive path (broadcast cost
# independent of the receiver count, a known neighbor's bitmap Data handled
# with 0 allocs, the word-wise bitmap codec held to a bit-by-bit reference,
# and the name decoder's and URI-key's contracts), and the neighbor query:
# random-direction positions bit-identical to the per-call trigonometry and
# binary search they replaced, the grid's cached Near answers held to a
# fresh grid, and the drift prefilter at its exact bound on the local and
# cross-shard paths. The tooling pins run here too: `dapes-plan report`
# over the committed BENCH_*.json against its text/json/csv goldens, and a
# plan's [faults] section decoding to the same fault plan as fault.Parse.
# TestGateListsNameRealTests fails if a name below no longer exists.
golden:
	$(GO) test -run 'TestGoldenScenarioJSON|TestGoldenTraceGridMatchesNaive|TestGoldenTraceWheelMatchesHeap|TestBaselineTrialsDeterministic|TestShardedTrialSerialMatchesParallel|TestShardedTrialBatchingMatchesLockstep|TestCompletionCounterMatchesScan|TestCompletionPredicateDoesNotAllocate' -count=1 ./internal/experiment/
	$(GO) test -run 'TestGridMatchesNaiveTrace|TestShardedMediumSingleShardMatchesMedium|TestShardedMediumSerialMatchesParallel|TestShardedMediumCullingAndBatchingTraceNeutral|TestBroadcastAllocsIndependentOfReceivers|TestPrefilterSoundAtDriftBoundLocal|TestPrefilterSoundAtDriftBoundCrossShard' -count=1 ./internal/phy/
	$(GO) test -run 'TestWheelMatchesHeapUnderChurn|TestCancelReclaimsQueueSpace|TestTimerResetDoesNotAllocate|TestShardedSingleShardMatchesKernel|TestShardedSerialMatchesParallel|TestWindowBatchingMatchesLockstep|TestShardedCloseLifecycle' -count=1 ./internal/sim/
	$(GO) test -run 'TestLookupPathsDoNotAllocate' -count=1 ./internal/nfd/
	$(GO) test -run 'TestRandomDirectionMatchesReferenceBitExact|TestGridNearProperty' -count=1 ./internal/geo/
	$(GO) test -run 'TestRunningRarityMatchesRecount|TestNextRequestDoesNotAllocate|TestRarityRunningCountsProperty|TestObserveCopiesIntoStoredBitmap|TestWordwiseCodecMatchesBitwiseReference|TestInPlaceCodecDoesNotAllocate' -count=1 ./internal/rpf/ ./internal/bitmap/
	$(GO) test -run 'TestBitmapDataFromKnownNeighborDoesNotAllocate|TestDecodeNameAllocatesTwice|TestAppendURIKeyMatchesParseName' -count=1 ./internal/core/ ./internal/ndn/
	$(GO) test -run 'TestReportGolden|TestFaultsSectionMatchesFaultParse' -count=1 ./cmd/dapes-plan/ ./internal/plan/

# The example binaries, built and executed end to end: each must exit 0
# within its deadline (examples/smoke_test.go).
examples:
	$(GO) test -count=1 ./examples/
