# statebench build/test entry points.
#
# tier1    — the gate every change must keep green: gofmt, vet (of
#            the benchmark harness too, its own module, which
#            `go build ./...` never compiles), build, and the full unit
#            suite (including the quick- and paper-scale output goldens,
#            TestEveryFunctionIsReachable, which links every binary and
#            fails on a function none of them contains, and
#            TestEveryFieldIsRead, which type-checks the module and the
#            harness and fails on a field no non-test code reads).
# tier1.5  — adds static analysis and the race detector; the
#            determinism test self-downscales under -race, and the
#            kernel's and the queue listener's tests repeat ten times
#            under it, because kernel state passes between process
#            goroutines and listener callbacks run on whichever
#            goroutine holds the baton; so do the Durable hub's tests,
#            whose envelopes the sending and the receiving process
#            goroutines share, and the test that
#            shares one corpus digest table between eight goroutines,
#            as concurrent sweep workers do; the forest and k-NN tests
#            and the trained-artifact pin repeat five times, because
#            those kernels grow trees and score queries on every core
#            (the pin trains through its own payload engine, so each
#            run fits the models again). It also
#            cross-builds for Windows, the only build of the non-Linux
#            files (payload's heap-backed zero arena).
# tier2    — tier1.5 plus the observability/chaos determinism gates,
#            the paper-scale output golden, the coverage floor, and
#            short fuzz smoke runs: full campaigns with tracing +
#            metrics + fault injection on must render and export
#            byte-identically at any worker count.
# cover    — library-package coverage with a checked-in floor.
# fuzz     — short native-fuzzing smoke runs for the SFN JSONPath and
#            Choice evaluators, the task-hub envelope's size bound and
#            the video chunk message decoder.
# bench    — kernel micro-benchmarks, the payload alloc benchmarks,
#            the mlkit forest-fit and k-NN predict pair, the classic
#            Durable orchestration pair, the
#            sequential-vs-parallel full-suite pair, the
#            kernel/traffic-engine suite, and the optimizer's
#            cold-vs-shared sweep pair (the numbers behind the
#            committed BENCH_*.json baselines).

GO ?= go
GOFMT ?= gofmt

# Minimum total statement coverage (percent) across ./internal/...;
# `make cover` fails below this.
COVER_FLOOR ?= 75

.PHONY: tier1 tier1.5 tier2 cover fuzz bench bench-kernel bench-payload bench-mlkit bench-durable bench-all bench-traffic bench-netherite bench-optimizer fmt-check golden golden-cache-off timeline-determinism netherite-determinism flow-conformance optimizer-determinism

# fmt-check fails (listing the offenders) if any file needs gofmt.
fmt-check:
	@out=$$($(GOFMT) -l .); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

tier1: fmt-check
	$(GO) vet ./...
	cd perfbench && $(GO) vet .
	$(GO) build ./... && $(GO) test ./...

# golden replays the full paper-scale campaign and compares it byte for
# byte against testdata/golden, past go test's result cache. Plain
# tier1 runs the same test beside the quick-scale goldens; only -race
# runs skip them.
golden:
	$(GO) test -run TestDefaultOutputMatchesGolden -count=1 ./cmd/statebench/

tier1.5:
	$(GO) vet ./... && $(GO) test -race -timeout 20m ./...
	$(GO) test -race -count=10 ./internal/sim/ ./internal/cloud/queue/
	$(GO) test -race -count=10 ./internal/azure/durable/
	$(GO) test -race -count=10 -run 'TestPieceDigestsHashEachPieceOnce' ./internal/workloads/mapreduce/
	$(GO) test -race -count=5 ./internal/mlkit/ensemble/ ./internal/mlkit/neighbors/
	$(GO) test -race -count=5 -run 'TestTrainedArtifactsPinned' ./internal/workloads/mlpipe/
	GOOS=windows GOARCH=amd64 $(GO) build ./...
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

# timeline-determinism is the windowed-telemetry gate: recording must
# not change the open-loop engine's results, the per-window CSV must be
# byte-identical across -parallel {1,8} (campaign level, including the
# anomaly log pinned by the timeline golden), and the -live endpoints
# must serve the same bytes as the file exports.
timeline-determinism:
	$(GO) test -run 'TestTimelineObservationOnly' -count=1 ./internal/traffic/
	$(GO) test -run 'TestTimelineWorkersInvariant|TestMergeCommutative' -count=1 ./internal/experiments/ ./internal/obs/tseries/
	$(GO) test -run 'TestTimelineQuickMatchesGolden' -count=1 ./cmd/statebench/
	$(GO) test -run 'TestServeLive' -count=1 ./internal/obs/tseries/

# netherite-determinism is the task-hub backend gate: every conformance
# scenario must produce identical results on the classic and Netherite
# hubs, and Netherite transcripts must match, byte for byte, the ones
# the partitioned store recorded at partition counts {1,4,8}
# (testdata/transcripts.txt, fault-free and under the default chaos
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
# runs — including the cross-style MapReduce answer-equality proof and
# the choice/wait probe that must return the same output on AWS-Step,
# GCP-Wflow, Az-Dorch and Az-Dorch-N.
flow-conformance:
	$(GO) test -run 'TestFlowConformance|TestGraph' -count=1 ./cmd/statebench/
	$(GO) test -count=1 ./internal/flow/ ./internal/flow/lowerers/ ./internal/workloads/mapreduce/

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
	$(GO) test -run - -fuzz FuzzEnvelopeSize -fuzztime 10s ./internal/azure/durable/
	$(GO) test -run - -fuzz FuzzChunkDecode -fuzztime 10s ./internal/workloads/videoproc/

# bench-kernel reports at GOMAXPROCS 1 and 2: a baton pass between
# process goroutines costs differently when the woken goroutine can run
# on another core. IdleListeners is four storage-queue listeners idle
# for a virtual hour, reported per empty poll, in kernel events per op
# and in switches per op.
# LogNormalSample is one latency draw, the model behind every invoke,
# poll and storage operation.
bench-kernel:
	$(GO) test -run - -bench 'Kernel|EventThroughput|ProcContextSwitch|ProcHandoff|LogNormalSample' -benchmem -cpu 1,2 ./internal/sim/
	$(GO) test -run - -bench 'IdleListeners' -benchmem -cpu 1,2 ./internal/cloud/queue/

bench-payload:
	$(GO) test -run - -bench 'BenchmarkPayload' -benchmem ./internal/workloads/mlpipe/ ./internal/workloads/mapreduce/ ./internal/video/

# bench-mlkit times the two payload kernels that dominate large-dataset
# ML training: the 24-tree forest fit and the k-NN validation predict,
# each at that dataset's shape on synthetic data, and the k-NN predict
# again on the pipeline's real projected split, where pruning skips
# more of each distance sum than on uniform data; then the whole
# large-dataset training, cache-cold (TrainLarge, perfbench's
# mlkit.train_large_s). Both kernels fan out over GOMAXPROCS, so each
# runs at 1 and 2.
bench-mlkit:
	$(GO) test -run - -bench 'ForestFitLarge' -benchtime 3x -benchmem -cpu 1,2 ./internal/mlkit/ensemble/
	$(GO) test -run - -bench 'KNNPredictLarge' -benchtime 3x -benchmem -cpu 1,2 ./internal/mlkit/neighbors/
	$(GO) test -run - -bench 'KNNPredictPipeline|TrainLarge' -benchtime 3x -benchmem -cpu 1,2 ./internal/workloads/mlpipe/

# bench-durable times one orchestration run on the classic task hub,
# replays and history loads included: a 3-activity chain, and Fig 14's
# widest fan-out (80 activities joined by WaitAll).
bench-durable:
	$(GO) test -run - -bench 'OrchestrationChain|OrchestrationFanOut' -benchmem ./internal/azure/durable/

bench-all:
	$(GO) test -run - -bench 'SequentialAll|ParallelAll' -benchtime 1x -benchmem .

# bench-traffic exercises the kernel under the traffic-shaped
# standing-population workload, a standing population of timers
# re-armed at the scale evaluations' 6 s and the idle reaps' 5 min
# delays queued through At and through a Timers, one of timers
# re-armed after each serving model's completion delays queued through
# At and through a Timers, and one full million-tenant open-loop run
# per serving model; every benchmark
# reports events/op so cmd/benchjson -compare can derive events/sec
# across baselines.
# Separate invocations on purpose: the storm and the timers need the
# default benchtime to amortize their setup across iterations, and
# each traffic run must own its process so its peak-RSS-MB is not
# inflated by another benchmark's high-water mark.
bench-traffic:
	$(GO) test -run - -bench 'KernelStandingCascade' -benchtime 1x -benchmem -timeout 60m .
	$(GO) test -run - -bench 'SameInstantStorm' -benchmem .
	$(GO) test -run - -bench 'KernelFixedDelayTimers' -benchmem .
	$(GO) test -run - -bench 'KernelRandomDelayTimers' -benchmem .
	$(GO) test -run - -bench 'TrafficMillionTenants$$/per-request' -benchtime 1x -benchmem -timeout 60m .
	$(GO) test -run - -bench 'TrafficMillionTenants$$/instance-pool' -benchtime 1x -benchmem -timeout 60m .

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

bench: bench-kernel bench-payload bench-mlkit bench-durable bench-all bench-traffic bench-netherite bench-optimizer
