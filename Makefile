# statebench build/test entry points.
#
# tier1    — the gate every change must keep green: gofmt, vet,
#            build, and the full unit suite (including the quick-scale
#            output goldens).
# tier1.5  — adds static analysis and the race detector; the
#            determinism test self-downscales under -race, and the
#            kernel's tests repeat ten times under it, because kernel
#            state passes between process goroutines.
# tier2    — tier1.5 plus the observability/chaos determinism gates,
#            the paper-scale output golden, the coverage floor, and
#            short fuzz smoke runs: full campaigns with tracing +
#            metrics + fault injection on must render and export
#            byte-identically at any worker count.
# cover    — library-package coverage with a checked-in floor.
# fuzz     — short native-fuzzing smoke runs for the SFN JSONPath and
#            Choice evaluators.
# bench    — kernel micro-benchmarks, the payload alloc benchmarks,
#            the sequential-vs-parallel full-suite pair, the
#            sharded-kernel/traffic-engine suite, and the optimizer's
#            cold-vs-shared sweep pair (the numbers behind the
#            committed BENCH_*.json baselines).

GO ?= go
GOFMT ?= gofmt

# Minimum total statement coverage (percent) across ./internal/...;
# `make cover` fails below this.
COVER_FLOOR ?= 75

.PHONY: tier1 tier1.5 tier2 cover fuzz bench bench-kernel bench-payload bench-all bench-traffic bench-netherite bench-optimizer fmt-check golden golden-cache-off timeline-determinism netherite-determinism flow-conformance optimizer-determinism

# fmt-check fails (listing the offenders) if any file needs gofmt.
fmt-check:
	@out=$$($(GOFMT) -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

tier1: fmt-check
	$(GO) vet ./...
	$(GO) build ./... && $(GO) test ./...

# golden replays the full paper-scale campaign and compares it byte for
# byte against testdata/golden (quick-scale goldens run in plain tier1).
golden:
	STATEBENCH_GOLDEN_FULL=1 $(GO) test -run TestDefaultOutputMatchesGolden -count=1 -timeout 30m ./cmd/statebench/

tier1.5:
	$(GO) vet ./... && $(GO) test -race -timeout 20m ./...
	$(GO) test -race -count=10 ./internal/sim/
	$(MAKE) golden-cache-off

# golden-cache-off replays the quick-scale suite with the payload cache
# disabled (-payload-cache=off path) and compares byte-for-byte against
# the same goldens the cached run must match: memoization can change
# cost, never output.
golden-cache-off:
	STATEBENCH_CACHE_OFF=1 $(GO) test -run TestQuickOutputCacheOffMatchesGolden -count=1 ./cmd/statebench/

tier2:
	$(GO) vet ./...
	$(GO) test -race -timeout 20m ./...
	$(GO) test -run 'TestTracingPreservesDeterminism|TestTracingDoesNotChangeResults|TestChaosPreservesDeterminism' -count=1 . ./internal/core/
	$(MAKE) timeline-determinism
	$(MAKE) netherite-determinism
	$(MAKE) flow-conformance
	$(MAKE) optimizer-determinism
	$(MAKE) golden
	$(MAKE) fuzz
	$(MAKE) cover

# timeline-determinism is the windowed-telemetry gate: the per-window
# CSV must be byte-identical across kernel shard counts {1,4,16}
# (engine level), across -parallel {1,8} (campaign level, including the
# anomaly log pinned by the timeline golden), and the -live endpoints
# must serve the same bytes as the file exports.
timeline-determinism:
	$(GO) test -run 'TestTimelineShardInvariance|TestTimelineObservationOnly' -count=1 ./internal/traffic/
	$(GO) test -run 'TestTimelineWorkersInvariant|TestMergeCommutative' -count=1 ./internal/experiments/ ./internal/obs/tseries/
	$(GO) test -run 'TestTimelineQuickMatchesGolden' -count=1 ./cmd/statebench/
	$(GO) test -run 'TestServeLive' -count=1 ./internal/obs/tseries/

# netherite-determinism is the task-hub backend gate: every conformance
# scenario must produce identical results on the classic and Netherite
# hubs, and Netherite transcripts must be byte-identical across
# partition counts {1,4,8} (fault-free and under the default chaos
# plan), across repeated runs, and at -parallel {1,8} — including the
# campaign-level reports at any worker count.
netherite-determinism:
	$(GO) test -run 'TestConformanceAcrossHubs|TestByteIdenticalAcrossPartitionCounts|TestRepeatedRunsByteIdentical' -count=1 -parallel 1 ./internal/azure/netherite/
	$(GO) test -run 'TestConformanceAcrossHubs|TestByteIdenticalAcrossPartitionCounts|TestRepeatedRunsByteIdentical' -count=1 -parallel 8 ./internal/azure/netherite/
	$(GO) test -run 'TestNetheriteWorkersInvariant' -count=1 ./internal/experiments/

# flow-conformance is the workflow-IR gate: every IR-defined workload's
# observable behaviour on every registered style is pinned byte for
# byte against the pre-refactor baseline (testdata/golden/flowconf.txt)
# at -parallel 1 and 8, the lowered programs and graph-command output
# are pinned against their goldens, and the IR validation/lint suite
# runs — including the cross-style MapReduce answer-equality proof.
flow-conformance:
	$(GO) test -run 'TestFlowConformance|TestGraph' -count=1 ./cmd/statebench/
	$(GO) test -count=1 ./internal/flow/ ./internal/workloads/mapreduce/

# optimizer-determinism is the sweep-engine gate: the frontier tables,
# picks, and full candidate CSV for all five workload families must be
# byte-identical at -parallel {1,8} against the checked-in goldens; the
# shared-engine sweep must emit the exact bytes of the cold per-config
# baseline; the frontier must be invariant under enumeration order and
# shard splits; and the shared sweep must compute at most 0.35x the
# payloads of the cold baseline (the deterministic pin behind
# BENCH_PR10.json).
optimizer-determinism:
	$(GO) test -run 'TestOptimizeQuickMatchesGolden' -count=1 ./cmd/statebench/
	$(GO) test -run 'TestSweep|TestEnumerateCanonicalOrder|TestClassifyShardInvariance|TestNoSilentSkips|TestAdvisoriesFlowThrough|TestMemoSharesSeries|TestPicks' -count=1 ./internal/optimizer/

cover:
	$(GO) test -count=1 -coverprofile=cover.out ./internal/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
	{ echo "FAIL: coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

fuzz:
	$(GO) test -run - -fuzz FuzzJSONPath -fuzztime 10s ./internal/aws/sfn/
	$(GO) test -run - -fuzz FuzzChoiceEval -fuzztime 10s ./internal/aws/sfn/

# bench-kernel reports at GOMAXPROCS 1 and 2: a baton pass between
# process goroutines costs differently when the woken goroutine can run
# on another core.
bench-kernel:
	$(GO) test -run - -bench 'Kernel|EventThroughput|ProcContextSwitch|ProcHandoff' -benchmem -cpu 1,2 ./internal/sim/

bench-payload:
	$(GO) test -run - -bench 'BenchmarkPayload' -benchmem ./internal/workloads/mlpipe/ ./internal/video/

bench-all:
	$(GO) test -run - -bench 'SequentialAll|ParallelAll' -benchtime 1x -benchmem .

# bench-traffic exercises the sharded kernel under the traffic-shaped
# standing-population workload plus one full million-tenant open-loop
# run; every benchmark reports events/op so cmd/benchjson -compare can
# derive events/sec across baselines.
# Three invocations on purpose: the storm needs the default benchtime
# to amortize its million-timer setup across iterations, and the
# traffic run must own the process so peak-RSS-MB is not inflated by
# the cascade benchmarks' high-water mark.
bench-traffic:
	$(GO) test -run - -bench 'KernelSharded[0-9]' -benchtime 1x -benchmem -timeout 60m .
	$(GO) test -run - -bench 'SameInstantStorm' -benchmem .
	$(GO) test -run - -bench 'TrafficMillionTenants' -benchtime 1x -benchmem -timeout 60m .

# bench-netherite is the classic-vs-Netherite episode-throughput pair
# behind BENCH_PR8.json: each benchmark reports episodes/vsec (virtual
# time, deterministic) alongside the simulator's own wall-clock cost,
# and TestNetheriteEpisodeThroughputTarget pins the >=5x target in CI.
bench-netherite:
	$(GO) test -run - -bench 'HubEpisodeThroughput' -benchmem ./internal/azure/netherite/

# bench-optimizer is the cold-vs-shared sweep pair behind
# BENCH_PR10.json: the same 220-config mltrain+mapreduce space swept
# with per-candidate private payload caches (first invocation) and with
# the sweep-shared engine plus delta evaluation (second). Both modes
# run under one benchmark name, so capturing each to a JSON with
# cmd/benchjson -label and diffing via cmd/benchjson -compare renders
# the speedup column; TestSweepSharedDoesLessWork pins the <=0.35x
# compute ratio deterministically in CI.
bench-optimizer:
	STATEBENCH_SWEEP_COLD=1 $(GO) test -run - -bench 'OptimizerSweep' -benchtime 1x -benchmem -timeout 30m ./internal/optimizer/
	$(GO) test -run - -bench 'OptimizerSweep' -benchtime 1x -benchmem -timeout 30m ./internal/optimizer/

bench: bench-kernel bench-payload bench-all bench-traffic bench-netherite bench-optimizer
