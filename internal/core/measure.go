package core

import (
	"fmt"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/obs"
	"statebench/internal/obs/metrics"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/parallel"
	"statebench/internal/payload"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Series is the measured result of running one workflow style many
// times — the unit from which every figure in the paper is built.
type Series struct {
	Workflow string
	Impl     Impl
	Iters    int
	Errors   int

	// E2E and Cold hold per-run latency and cold-start samples.
	E2E  obs.Samples
	Cold obs.Samples
	// Breakdowns holds per-run queue/exec decompositions.
	Breakdowns obs.BreakdownSet

	// MeanBill is the mean per-run cost; MeanGBs the mean billed GB-s;
	// MeanTxns the mean stateful transactions/transitions per run.
	MeanBill pricing.Bill
	MeanGBs  float64
	MeanTxns float64

	// Env is the environment the series ran in (for experiment-specific
	// drill-downs such as Fig 14's scheduling delays). It is populated
	// only when MeasureOptions.KeepEnv is set; otherwise the whole
	// simulated cloud is released as soon as the campaign ends.
	Env *Env

	// SpanBreakdowns holds per-run decompositions derived from the span
	// tree instead of meter snapshots — the cross-check for Breakdowns.
	// Populated only when MeasureOptions.Tracing is set.
	SpanBreakdowns obs.BreakdownSet
	// Trace is the campaign's tracer (Chrome-trace export material).
	// Populated only when MeasureOptions.Tracing is set.
	Trace *span.Tracer
	// RunTraceIDs maps measured iteration -> its root trace ID in Trace.
	RunTraceIDs []uint64

	// SuccessRate is the fraction of measured iterations whose workflow
	// run reported no error (1.0 on a fault-free campaign).
	SuccessRate float64
	// Faults aggregates the campaign's injected faults and recovery
	// activity. Zero unless MeasureOptions.Chaos was set.
	Faults chaos.Stats

	// Payload is the campaign's payload-cache activity, attributed with
	// first-touch semantics (see payload.Engine.Scope): misses count the
	// distinct compute keys this campaign touched, hits the repeat
	// lookups — both properties of the workload alone, so the snapshot
	// is byte-identical whether the campaign ran alone or raced other
	// campaigns on a shared engine. Zero when caching is disabled.
	Payload payload.Stats

	// Timeline is the campaign's windowed telemetry (arrivals,
	// completions, cold starts, scheduling delays, faults, occupancy
	// gauges per virtual-time window). Populated only when
	// MeasureOptions.Timeline is set; the same series has then also been
	// merged into the shared collector.
	Timeline *tseries.Series
}

// MeasureOptions tunes a measurement campaign.
type MeasureOptions struct {
	// Iters is the number of measured invocations (the paper uses 100+).
	Iters int
	// Gap is the virtual time between invocations; long enough to let
	// queues quiesce, short enough to stay warm (like the paper's
	// back-to-back iterations).
	Gap time.Duration
	// Warmup runs (unmeasured) before the campaign; the paper's
	// latency numbers are warm-path, cold starts being measured
	// separately (Fig 10).
	Warmup int
	// Seed for the environment.
	Seed uint64
	// Input builds the per-iteration input (nil means nil input).
	Input func(iter int) []byte
	// Workers bounds how many campaigns MeasureAll runs concurrently
	// (0 = GOMAXPROCS, 1 = strictly sequential). Each campaign gets its
	// own Env, so the setting changes wall-clock only, never results.
	Workers int
	// KeepEnv retains the simulated environment on the returned Series
	// for experiment-specific drill-downs (Fig 14's scheduling delays,
	// Table III's finish times). Off by default: an Env pins the entire
	// simulated cloud — task hubs, blobs, queues, history tables — and
	// most callers only need the samples.
	KeepEnv bool
	// Tracing enables the span tracer on the campaign's Env: each
	// measured iteration runs under a root span, and the Series carries
	// the tracer plus span-derived breakdowns. Results (latency, cost,
	// report output) are byte-identical with tracing on or off.
	Tracing bool
	// Metrics, when non-nil, receives counter/histogram series from the
	// campaign's instrumentation points (implies Tracing's wiring). The
	// registry may be shared across concurrent campaigns; all writes are
	// commutative, so contents are deterministic at any worker count.
	Metrics *metrics.Registry
	// Chaos, when non-nil, wires a deterministic fault injector for the
	// given plan through every platform service of the campaign's Env.
	// Fault schedules derive from Seed and the plan alone, so results
	// are byte-identical across runs and worker counts. Nil is the
	// zero-overhead fast path: no injector is constructed and no
	// simulated result changes.
	Chaos *chaos.Plan
	// Timeline, when non-nil, enables windowed telemetry: the campaign
	// records into a private per-campaign tseries.Series (at the
	// collector's window interval) and merges it into the collector when
	// the campaign finishes. Implies Tracing's wiring — windowed
	// counters derive from the span stream — plus chaos-fault and
	// warm-pool instrumentation. Merging is commutative, so collector
	// contents are byte-identical at any Workers count. Never changes
	// measured output.
	Timeline *tseries.Collector
	// PayloadCache is the memoization engine for real payload compute
	// (see internal/payload). Nil keeps the Env default — the
	// process-global payload.Shared engine; experiment suites pass a
	// per-run engine so cold behaviour is uniform, and
	// payload.Disabled() turns memoization off entirely. Cached results
	// are byte-identical to fresh recomputes, so this option never
	// changes measured output.
	PayloadCache *payload.Engine
}

// DefaultMeasureOptions returns the paper-like defaults.
func DefaultMeasureOptions() MeasureOptions {
	return MeasureOptions{Iters: 100, Gap: 30 * time.Second, Warmup: 1, Seed: 42}
}

// Measure deploys wf in the given style into a fresh environment and
// invokes it opt.Iters times, collecting latency, breakdown, and cost
// series.
func Measure(wf Workflow, impl Impl, opt MeasureOptions) (*Series, error) {
	if !SupportsImpl(wf, impl) {
		return nil, &UnsupportedImplError{Workflow: wf.Name(), Impl: impl}
	}
	if opt.Iters <= 0 {
		opt.Iters = 1
	}
	env := newEnv(sim.NewKernel(opt.Seed), platform.DefaultAWS(), platform.DefaultAzure())
	if opt.PayloadCache != nil {
		env.Payload = opt.PayloadCache
	}
	// Scope the engine so this campaign's cache activity is observable
	// on the Series without disturbing the root engine's suite-level
	// counters (storage and single-flight stay shared).
	scope := env.Payload.Scope()
	env.Payload = scope
	var tl *tseries.Series
	if opt.Timeline != nil {
		tl = tseries.New(opt.Timeline.Interval())
		env.EnableTimeline(tl)
	}
	var tr *span.Tracer
	if opt.Tracing || opt.Metrics != nil || tl != nil {
		tr = env.EnableTracing()
		tr.Metrics = opt.Metrics
		tr.Windows = tl
	}
	inj := env.EnableChaos(opt.Chaos)
	if inj != nil {
		inj.Tracer = tr
		inj.Metrics = opt.Metrics
		inj.Timeline = tl
	}
	be := env.BackendFor(impl)
	if be == nil {
		return nil, fmt.Errorf("core: style %s has no registered provider", impl)
	}
	stateful := impl.Stateful()
	book := env.BookFor(impl)
	dep, err := wf.Deploy(env, impl)
	if err != nil {
		return nil, fmt.Errorf("core: deploy %s/%s: %w", wf.Name(), impl, err)
	}
	s := &Series{Workflow: wf.Name(), Impl: impl, Iters: opt.Iters}
	if opt.KeepEnv {
		s.Env = env
	}
	if opt.Tracing {
		s.Trace = tr
	}

	var bill pricing.Bill
	var gbs, txns float64
	var campaignErr error

	env.K.Spawn("measure", func(p *sim.Proc) {
		defer env.Stop()
		for w := 0; w < opt.Warmup; w++ {
			input := []byte(nil)
			if opt.Input != nil {
				input = opt.Input(-1 - w)
			}
			if _, err := dep.Runner.Invoke(p, input); err != nil {
				campaignErr = fmt.Errorf("core: warmup: %w", err)
				return
			}
			p.Sleep(opt.Gap)
		}
		for i := 0; i < opt.Iters; i++ {
			input := []byte(nil)
			if opt.Input != nil {
				input = opt.Input(i)
			}
			// Root span per measured run: every platform span of this
			// iteration hangs off it via p.TraceCtx propagation. The name
			// stays iteration-free to bound metric cardinality; the
			// iteration rides in an attribute.
			mark := tr.Len()
			runSpan := tr.StartTrace(p.Now(), span.KindRun, wf.Name()+"/"+string(impl))
			p.TraceCtx = runSpan.Context()
			before := be.Usage(stateful)
			stats, err := dep.Runner.Invoke(p, input)
			if err != nil {
				campaignErr = fmt.Errorf("core: iteration %d: %w", i, err)
				return
			}
			delta := be.Usage(stateful).Sub(before)
			if runSpan.Live() {
				runSpan.End(p.Now(), span.A("iter", fmt.Sprintf("%d", i)))
				p.TraceCtx = sim.TraceContext{}
			}

			if stats.Err != nil {
				s.Errors++
			}
			s.E2E.Add(stats.E2E)
			s.Cold.Add(stats.ColdStart)
			if stats.ExecTime == 0 {
				stats.ExecTime = delta.Exec
			}
			s.Breakdowns.Add(stats.Breakdown())
			if opt.Tracing {
				id := runSpan.Context().TraceID
				s.RunTraceIDs = append(s.RunTraceIDs, id)
				s.SpanBreakdowns.Add(span.BreakdownOf(tr.Since(mark), id))
			}

			bill = bill.Add(book.Bill(delta))
			gbs += delta.GBs
			txns += float64(delta.AllTxns)
			p.Sleep(opt.Gap)
		}
	})
	env.K.Run()
	if campaignErr != nil {
		return nil, campaignErr
	}
	n := float64(opt.Iters)
	s.MeanBill = bill.Scale(1 / n)
	s.MeanGBs = gbs / n
	s.MeanTxns = txns / n
	s.SuccessRate = float64(opt.Iters-s.Errors) / n
	s.Faults = inj.Stats()
	s.Payload = scope.Stats()
	if tl != nil {
		s.Timeline = tl
		opt.Timeline.Merge(tl)
		opt.Timeline.AddDone()
	}
	return s, nil
}

// ColdStartCampaignCached reproduces the paper's cold-start
// methodology: a fresh deployment receives one request per hour for the
// given number of hours (the paper: 4 days), and each request's
// cold-start delay is recorded. Keep-alive windows are far below an
// hour, so every request lands cold. cache is the payload engine (nil
// keeps the Env default), so suite runs share one engine across warm
// and cold campaigns.
func ColdStartCampaignCached(wf Workflow, impl Impl, hours int, seed uint64, input func(iter int) []byte, cache *payload.Engine) (*obs.Samples, error) {
	if !SupportsImpl(wf, impl) {
		return nil, &UnsupportedImplError{Workflow: wf.Name(), Impl: impl}
	}
	env := NewEnv(seed)
	if cache != nil {
		env.Payload = cache
	}
	dep, err := wf.Deploy(env, impl)
	if err != nil {
		return nil, fmt.Errorf("core: deploy %s/%s: %w", wf.Name(), impl, err)
	}
	var samples obs.Samples
	var campaignErr error
	env.K.Spawn("coldstart-campaign", func(p *sim.Proc) {
		defer env.Stop()
		for h := 0; h < hours; h++ {
			in := []byte(nil)
			if input != nil {
				in = input(h)
			}
			stats, err := dep.Runner.Invoke(p, in)
			if err != nil {
				campaignErr = err
				return
			}
			samples.Add(stats.ColdStart)
			p.Sleep(time.Hour)
		}
	})
	env.K.Run()
	if campaignErr != nil {
		return nil, campaignErr
	}
	return &samples, nil
}

// MeasureAll runs Measure for every style the workflow supports and
// returns the series keyed by style. The per-style campaigns are fully
// independent (each deploys into a fresh Env), so they fan out across
// opt.Workers goroutines; results are identical at any worker count.
func MeasureAll(wf Workflow, opt MeasureOptions) (map[Impl]*Series, error) {
	impls := wf.Impls()
	series, err := parallel.Map(opt.Workers, len(impls), func(i int) (*Series, error) {
		return Measure(wf, impls[i], opt)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[Impl]*Series, len(impls))
	for i, impl := range impls {
		out[impl] = series[i]
	}
	return out, nil
}
