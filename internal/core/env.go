package core

import (
	"time"

	"statebench/internal/aws"
	"statebench/internal/azure"
	"statebench/internal/chaos"
	"statebench/internal/obs"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/payload"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Env is one fresh simulated deployment: a kernel plus both clouds,
// ready for a Workflow to deploy into.
//
// Concurrency contract: an Env wraps a single sim.Kernel and inherits
// its one-goroutine discipline — everything reachable from an Env
// (clouds, task hubs, blobs, queues, Scratch) must be touched only by
// the host goroutine that runs its kernel. Envs are never shared;
// parallel campaigns (internal/parallel) each build their own Env from
// their own seed, which is what makes fan-out deterministic and
// lock-free.
type Env struct {
	K *sim.Kernel
	// AWS and Azure are the paper's two clouds, constructed eagerly
	// with the Env (workload deployment code reaches into their typed
	// services). They are also the first two entries of the backend
	// map; additional registered providers are constructed lazily by
	// Backend on first use.
	AWS   *aws.Cloud
	Azure *azure.Cloud

	AWSPrices   pricing.AWSPrices
	AzurePrices pricing.AzurePrices

	// backends holds each provider's simulated cloud, keyed by kind.
	backends map[CloudKind]Backend

	// Scratch lets workloads expose experiment-specific measurements
	// (e.g. per-worker finish times) to the experiment drivers.
	Scratch map[string]any

	// Trace is non-nil once EnableTracing has been called; all platform
	// services of this Env then emit spans into it.
	Trace *span.Tracer

	// Chaos is non-nil once EnableChaos has been called; all platform
	// services of this Env then consult it for fault injection.
	Chaos *chaos.Injector

	// Timeline is non-nil once EnableTimeline has been called; platform
	// services of this Env then record per-window occupancy gauges into
	// it (counters ride in via the span tracer's window sink and the
	// chaos injector).
	Timeline *tseries.Series

	// Payload is the memoization engine workload deployments use for
	// real payload compute (mlpipe training, video detection). Defaults
	// to the process-global payload.Shared; campaigns run through
	// Measure inherit MeasureOptions.PayloadCache instead, so one suite
	// run shares one engine across impls, providers, and repetitions.
	// Cached results are byte-identical to fresh recomputes, so the
	// engine never changes simulated output.
	Payload *payload.Engine
}

// NewEnv builds an environment with default calibration parameters.
func NewEnv(seed uint64) *Env {
	return NewEnvWithParams(seed, platform.DefaultAWS(), platform.DefaultAzure())
}

// NewEnvWithParams builds an environment with explicit platform
// parameters (used by ablation experiments).
func NewEnvWithParams(seed uint64, ap platform.AWSParams, zp platform.AzureParams) *Env {
	return newEnv(sim.NewKernel(seed), ap, zp)
}

// newEnv builds an environment on a fresh kernel k.
func newEnv(k *sim.Kernel, ap platform.AWSParams, zp platform.AzureParams) *Env {
	e := &Env{
		K:           k,
		AWS:         aws.New(k, ap),
		Azure:       azure.New(k, zp),
		AWSPrices:   pricing.DefaultAWS(),
		AzurePrices: pricing.DefaultAzure(),
		Scratch:     make(map[string]any),
		Payload:     payload.Shared(),
	}
	e.backends = map[CloudKind]Backend{AWS: e.AWS, Azure: e.Azure}
	return e
}

// Backend returns the simulated cloud for a registered provider,
// constructing it on first use. Lazy construction keeps extra
// providers free for AWS/Azure-only campaigns: a backend that is
// never touched allocates nothing and — because every RNG stream is
// derived from its name, not from draw order — cannot perturb another
// provider's variates. Returns nil for an unregistered kind.
func (e *Env) Backend(kind CloudKind) Backend {
	if be, ok := e.backends[kind]; ok {
		return be
	}
	spec, ok := providerRegistry[kind]
	if !ok {
		return nil
	}
	be := spec.NewBackend(e)
	if e.Trace != nil {
		be.SetTracer(e.Trace)
	}
	if e.Chaos != nil {
		be.SetChaos(e.Chaos)
	}
	if e.Timeline != nil {
		be.SetTimeline(e.Timeline)
	}
	e.backends[kind] = be
	return be
}

// BackendFor returns the backend hosting an implementation style.
func (e *Env) BackendFor(impl Impl) Backend { return e.Backend(impl.Cloud()) }

// BookFor returns the price book for an implementation style. The
// paper's two providers read the Env's live AWSPrices/AzurePrices
// fields (ablation experiments perturb those); other providers use
// their registered default book.
func (e *Env) BookFor(impl Impl) pricing.Book {
	kind := impl.Cloud()
	if kind == AWS {
		return e.AWSPrices
	}
	if kind == Azure {
		return e.AzurePrices
	}
	if spec, ok := providerRegistry[kind]; ok {
		return spec.DefaultBook()
	}
	return pricing.AzurePrices{}
}

// UsageFor reports the cumulative billable consumption of the backend
// hosting impl, in impl's stateful billing mode.
func (e *Env) UsageFor(impl Impl) pricing.Usage {
	return e.BackendFor(impl).Usage(impl.Stateful())
}

// Stop terminates long-running platform listeners on every constructed
// backend so the kernel drains.
func (e *Env) Stop() {
	for _, kind := range sortedBackendKinds(e.backends) {
		e.backends[kind].Stop()
	}
}

// EnableTracing wires a span tracer through every platform service of
// this Env (idempotent). Call before deploying workloads so queues
// created during deployment are covered too. Tracing is pure
// bookkeeping — no sleeps, no RNG draws — so enabling it does not
// change any simulated result. Backends constructed later inherit the
// tracer at construction.
func (e *Env) EnableTracing() *span.Tracer {
	if e.Trace == nil {
		e.Trace = span.New()
		for _, kind := range sortedBackendKinds(e.backends) {
			e.backends[kind].SetTracer(e.Trace)
		}
	}
	return e.Trace
}

// EnableChaos wires a fault injector for plan through every platform
// service of this Env (idempotent; a nil plan is the disabled fast
// path and leaves everything untouched). Call before deploying
// workloads so queues created during deployment are covered too.
func (e *Env) EnableChaos(plan *chaos.Plan) *chaos.Injector {
	if plan == nil {
		return e.Chaos
	}
	if e.Chaos == nil {
		e.Chaos = chaos.NewInjector(e.K, plan)
		for _, kind := range sortedBackendKinds(e.backends) {
			e.backends[kind].SetChaos(e.Chaos)
		}
	}
	return e.Chaos
}

// EnableTimeline wires windowed telemetry through every platform
// service of this Env (idempotent; a nil series leaves everything
// untouched). Call before deploying workloads. Like tracing, windowed
// telemetry is pure observation — no events, no RNG draws — so
// enabling it does not change any simulated result. Backends
// constructed later inherit the series at construction.
func (e *Env) EnableTimeline(s *tseries.Series) *tseries.Series {
	if s == nil {
		return e.Timeline
	}
	if e.Timeline == nil {
		e.Timeline = s
		for _, kind := range sortedBackendKinds(e.backends) {
			e.backends[kind].SetTimeline(s)
		}
	}
	return e.Timeline
}

// Stage opens an application-level stage span (ML pipeline step, video
// split/detect/merge) under p's current context. Returns a no-op handle
// when tracing is disabled, so workload code can call it unconditionally.
func (e *Env) Stage(p *sim.Proc, name string) span.Active {
	return e.Trace.Start(p.Now(), span.KindStage, name, p.TraceCtx)
}

// RunStats is the outcome of one workflow invocation.
type RunStats struct {
	// E2E is the paper's end-to-end latency for this style (state
	// machine Start→End on AWS; orchestrator Running→Completed on
	// durable Azure; trigger→last-function elsewhere).
	E2E time.Duration
	// ColdStart is the style's cold-start metric (Fig 10 methodology).
	ColdStart time.Duration
	// ExecTime is the summed function execution time during the run.
	ExecTime time.Duration
	// Output is the workflow's result payload (workload-specific).
	Output []byte
	Err    error
}

// Breakdown derives the paper's queue-vs-execution decomposition: the
// time not spent executing or cold-starting is queueing/transfer.
func (r RunStats) Breakdown() obs.Breakdown {
	queue := r.E2E - r.ExecTime - r.ColdStart
	if queue < 0 {
		// Parallel stages can make summed exec exceed E2E; attribute
		// everything to execution then.
		return obs.Breakdown{ColdStart: r.ColdStart, ExecTime: r.E2E - r.ColdStart}
	}
	return obs.Breakdown{ColdStart: r.ColdStart, QueueTime: queue, ExecTime: r.ExecTime}
}

// Runner executes a deployed workflow.
type Runner interface {
	// Invoke runs the workflow once from process p with an opaque
	// workload-specific input.
	Invoke(p *sim.Proc, input []byte) (RunStats, error)
}

// Deployment is a deployed workflow plus its Table II metadata.
type Deployment struct {
	Runner Runner
	// FuncCount is the "# of Func" Table II column.
	FuncCount int
	// CodeSizeMB is the deployment-package size column.
	CodeSizeMB float64
}

// Workflow is a workload that can deploy itself in multiple styles.
type Workflow interface {
	// Name identifies the workload (e.g. "ml-training").
	Name() string
	// Impls lists the paper's supported styles; every figure and table
	// iterates this list, so it must contain Table II styles only.
	Impls() []Impl
	// Deploy installs the workflow into env using style impl.
	Deploy(env *Env, impl Impl) (*Deployment, error)
}

// ExtendedWorkflow is implemented by workloads that also deploy on
// providers beyond the paper's two. The extra styles are measurable
// through Measure/ColdStartCampaign but excluded from Impls so paper
// output never changes as providers are registered.
type ExtendedWorkflow interface {
	Workflow
	// ExtraImpls lists additional (non-paper) deployable styles.
	ExtraImpls() []Impl
}

// SupportsImpl reports whether wf deploys impl, including any
// ExtendedWorkflow extra styles.
func SupportsImpl(wf Workflow, impl Impl) bool {
	for _, i := range wf.Impls() {
		if i == impl {
			return true
		}
	}
	if ext, ok := wf.(ExtendedWorkflow); ok {
		for _, i := range ext.ExtraImpls() {
			if i == impl {
				return true
			}
		}
	}
	return false
}
