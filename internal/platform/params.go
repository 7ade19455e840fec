package platform

import (
	"time"

	"statebench/internal/sim"
)

// This file is the single calibration surface of the reproduction: every
// latency distribution, scaling rate and limit of both simulated clouds
// lives here. The defaults are tuned so that the *shape* of each paper
// result holds (see EXPERIMENTS.md for paper-vs-measured numbers);
// experiments may copy and perturb them for ablations.

// FaaSParams calibrates a per-request function service (AWS Lambda,
// Cloud Functions gen 1): every invocation takes a warm container or
// pays its own cold start. AWSParams and GCPParams embed it; the
// service itself is internal/cloud/faas.
type FaaSParams struct {
	// InvokeRTT is the front-end round trip of one invocation (from
	// the client, state machine or workflow engine).
	InvokeRTT sim.Dist
	// ColdStartBase is the container provisioning time excluding code
	// fetch; CodeFetchBW (bytes/s) converts deployment-package size to
	// extra cold-start time (the paper's packages are 63–271 MB).
	ColdStartBase sim.Dist
	CodeFetchBW   float64
	// WarmStart is the per-invocation overhead on a warm container.
	WarmStart sim.Dist
	// KeepAlive is how long an idle container stays warm.
	KeepAlive time.Duration
	// BurstConcurrency caps simultaneous containers per function.
	BurstConcurrency int
	// TimeLimit aborts executions.
	TimeLimit time.Duration
	// PayloadLimit caps the synchronous request payload (0 = none).
	PayloadLimit int
}

// AWSParams calibrates the simulated AWS platform (Lambda + Step
// Functions), Table I row "AWS".
type AWSParams struct {
	// FaaSParams is Lambda's calibration. BurstConcurrency is ~3000 in
	// large regions, effectively unlimited for the paper's workloads;
	// TimeLimit is 15 min; PayloadLimit, the synchronous invoke / Step
	// data cap, is 256 KB.
	FaaSParams
	// MemoryStepMB is the configurable memory granularity (128 MB).
	MemoryStepMB int
	// StepTransition is the state-machine overhead per state transition.
	StepTransition sim.Dist
	// StepTaskDispatch is the extra latency for a Task state to invoke
	// its Lambda (scheduler hop).
	StepTaskDispatch sim.Dist
}

// DefaultAWS returns the calibrated AWS parameters.
func DefaultAWS() AWSParams {
	return AWSParams{
		FaaSParams: FaaSParams{
			InvokeRTT:        sim.NewLogNormal(20*time.Millisecond, 0.3, time.Second),
			ColdStartBase:    sim.NewLogNormal(250*time.Millisecond, 0.35, 5*time.Second),
			CodeFetchBW:      24e6, // ~24 MB/s package fetch+unpack
			WarmStart:        sim.NewLogNormal(6*time.Millisecond, 0.3, 200*time.Millisecond),
			KeepAlive:        8 * time.Minute,
			BurstConcurrency: 3000,
			TimeLimit:        15 * time.Minute,
			PayloadLimit:     256 * 1024,
		},
		MemoryStepMB:     128,
		StepTransition:   sim.NewLogNormal(25*time.Millisecond, 0.4, 2*time.Second),
		StepTaskDispatch: sim.NewLogNormal(60*time.Millisecond, 0.5, 5*time.Second),
	}
}

// AzureParams calibrates the simulated Azure platform (Functions
// consumption plan + Durable extension), Table I row "Azure".
type AzureParams struct {
	// HTTPTriggerRTT is the front-end latency for HTTP-triggered starts.
	HTTPTriggerRTT sim.Dist
	// InstanceColdStart is the time to bring up a new worker instance
	// (container) on scale-out.
	InstanceColdStart sim.Dist
	// Dispatch is the in-instance dispatch overhead per execution.
	Dispatch sim.Dist
	// MemoryLimitMB is the consumption-plan cap (1536 MB, Table I);
	// Azure bills observed usage, so this only bounds it.
	MemoryLimitMB int
	// TimeLimit aborts executions (30 min on the paper's plan).
	TimeLimit time.Duration
	// ConcurrencyPerInstance is how many Python executions one instance
	// runs at once (1 for the paper's Python runtime).
	ConcurrencyPerInstance int
	// MaxInstances caps scale-out (consumption plan: 200).
	MaxInstances int
	// ScaleEvalInterval is the scale controller's decision period; each
	// decision adds at most ScaleOutStep instances while work is queued
	// — this rate limit is the mechanism behind Fig 14's scheduling
	// delays.
	ScaleEvalInterval time.Duration
	ScaleOutStep      int
	// IdleInstanceTimeout reclaims instances with no work.
	IdleInstanceTimeout time.Duration
	// ColdPollPhase is the extra delay before an idle app notices a
	// queue-triggered request (listener poll phase); it dominates the
	// Az-Queue cold starts in Fig 10 (10–20 s).
	ColdPollPhase sim.Dist
	// TriggerMaxPoll caps queue-trigger listeners' poll back-off while
	// the app is running (it grows during long upstream executions and
	// resets on app activity) — the Az-Queue hop-latency mechanism of
	// Fig 8.
	TriggerMaxPoll time.Duration
	// DurablePayloadLimit caps cross-function durable messages (64 KB).
	DurablePayloadLimit int
	// QueuePayloadLimit caps manual storage-queue messages (256 KB).
	QueuePayloadLimit int
	// ControlQueuePartitions is the task hub's control-queue count (4).
	ControlQueuePartitions int
	// DurableMaxPoll caps the task hub listeners' poll back-off. The
	// paper-era Durable Task Framework polled aggressively (~1 s),
	// which is what makes its idle transaction cost dominate Fig 15.
	DurableMaxPoll time.Duration
	// HistoryReplayPerEvent is the orchestrator-side CPU time consumed
	// per history event during a replay pass; replays inflate Azure
	// GB-s (Fig 11a).
	HistoryReplayPerEvent time.Duration
	// EntityOpOverhead is the extra execution time of running an
	// operation inside a durable entity vs. a stateless activity
	// (state rehydration + serialization; paper §V-A: ~8%).
	EntityOpOverhead sim.Dist
	// EntityStateRTT is the latency of loading/persisting entity state.
	EntityStateRTT sim.Dist
}

// DefaultAzure returns the calibrated Azure parameters.
func DefaultAzure() AzureParams {
	return AzureParams{
		HTTPTriggerRTT: sim.NewLogNormal(30*time.Millisecond, 0.4, 2*time.Second),
		// Instance starts are usually ~1 s, but a few percent take
		// minutes (container image pulls, placement retries) — the
		// tail behind Fig 13/14 and Table III.
		InstanceColdStart: sim.Mixture{
			Weights: []float64{0.93, 0.07},
			Parts: []sim.Dist{
				sim.NewLogNormal(1100*time.Millisecond, 0.5, 20*time.Second),
				sim.UniformDist{Lo: 80 * time.Second, Hi: 400 * time.Second},
			},
		},
		Dispatch:               sim.NewLogNormal(15*time.Millisecond, 0.5, 2*time.Second),
		MemoryLimitMB:          1536,
		TimeLimit:              30 * time.Minute,
		ConcurrencyPerInstance: 1,
		MaxInstances:           200,
		ScaleEvalInterval:      6 * time.Second,
		ScaleOutStep:           1,
		IdleInstanceTimeout:    5 * time.Minute,
		ColdPollPhase:          sim.UniformDist{Lo: 8 * time.Second, Hi: 22 * time.Second},
		TriggerMaxPoll:         10 * time.Second,
		DurablePayloadLimit:    64 * 1024,
		QueuePayloadLimit:      256 * 1024,
		ControlQueuePartitions: 4,
		DurableMaxPoll:         time.Second,
		HistoryReplayPerEvent:  9 * time.Millisecond,
		EntityOpOverhead:       sim.NewLogNormal(40*time.Millisecond, 0.4, 2*time.Second),
		EntityStateRTT:         sim.NewLogNormal(35*time.Millisecond, 0.6, 5*time.Second),
	}
}

// GCPParams calibrates the simulated GCP platform (Cloud Functions
// gen 1 + Workflows). GCP is not part of the paper's measurement; the
// defaults follow the same public-documentation-plus-folk-benchmark
// methodology as Table I so the third provider exercises the
// provider-registry seam with plausible numbers.
type GCPParams struct {
	// FaaSParams is Cloud Functions' calibration. Gen-1 cold starts are
	// markedly slower than Lambda's and keep-alive is longer; TimeLimit
	// is 540 s for HTTP functions and PayloadLimit caps request and
	// response bodies at 10 MB.
	FaaSParams
	// MemoryTiersMB lists the configurable memory sizes (gen 1 offers
	// fixed tiers, not a step); billing uses the configured tier.
	MemoryTiersMB []int
	// StepOverhead is the Workflows engine's per-step scheduling time.
	StepOverhead sim.Dist
	// CallDispatch is the extra latency for a workflow call step to
	// reach its Cloud Function (connector hop).
	CallDispatch sim.Dist
}

// DefaultGCP returns the calibrated GCP parameters.
func DefaultGCP() GCPParams {
	return GCPParams{
		FaaSParams: FaaSParams{
			InvokeRTT:        sim.NewLogNormal(25*time.Millisecond, 0.35, time.Second),
			ColdStartBase:    sim.NewLogNormal(1400*time.Millisecond, 0.45, 20*time.Second),
			CodeFetchBW:      20e6, // ~20 MB/s source fetch+build cache restore
			WarmStart:        sim.NewLogNormal(7*time.Millisecond, 0.3, 200*time.Millisecond),
			KeepAlive:        15 * time.Minute,
			BurstConcurrency: 1000,
			TimeLimit:        540 * time.Second,
			PayloadLimit:     10 << 20,
		},
		MemoryTiersMB: []int{128, 256, 512, 1024, 2048, 4096, 8192},
		StepOverhead:  sim.NewLogNormal(35*time.Millisecond, 0.4, 2*time.Second),
		CallDispatch:  sim.NewLogNormal(80*time.Millisecond, 0.5, 5*time.Second),
	}
}
