// Package functions simulates an Azure Functions app on the consumption
// plan: a pool of worker instances fed by an internal dispatch queue and
// grown by a rate-limited scale controller. The controller's gradual
// instance allocation is the mechanism behind the paper's Azure fan-out
// scheduling delays (Fig 14), and queue-triggered listeners' poll phase
// is the mechanism behind Az-Queue cold starts (Fig 10).
package functions

import (
	"fmt"
	"sort"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/cloud/queue"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// Handler is a function body. Compute is modeled with ctx.Busy; I/O by
// calling simulated services with ctx.Proc().
type Handler func(ctx *Context, payload []byte) ([]byte, error)

// Context is passed to executing handlers.
type Context struct {
	p    *sim.Proc
	host *Host
	fn   *Function
}

// Proc returns the simulation process executing this invocation.
func (c *Context) Proc() *sim.Proc { return c.p }

// Busy consumes d of virtual compute time.
func (c *Context) Busy(d time.Duration) { c.p.Sleep(d) }

// FunctionName returns the executing function's name.
func (c *Context) FunctionName() string { return c.fn.cfg.Name }

// Host returns the function app hosting this execution.
func (c *Context) Host() *Host { return c.host }

// Config describes one function in the app.
type Config struct {
	Name string
	// ConsumedMemMB models observed memory usage; Azure bills this
	// (rounded up to 128 MB), not a configured value.
	ConsumedMemMB int
	Handler       Handler
}

// Function is a registered function with its billing meter.
type Function struct {
	cfg   Config
	Meter platform.Meter
	// Execs counts completed executions; Errors counts handler errors.
	Execs  int64
	Errors int64
}

// Config returns the function's configuration.
func (f *Function) Config() Config { return f.cfg }

// Result is the outcome of one execution.
type Result struct {
	Output []byte
	Err    error
	// SchedDelay is submit-to-handler-start time (queueing + scale-out).
	SchedDelay time.Duration
	// Cold reports whether a fresh instance had to start for this work.
	Cold bool
	// ExecTime is the handler's wall time.
	ExecTime time.Duration
}

// workItem is one queued execution request. ctx is the submitter's
// trace context; the scheduling-delay and exec spans parent to it.
type workItem struct {
	fn        string
	payload   []byte
	submitted sim.Time
	cold      bool
	done      *sim.Future[Result]
	ctx       sim.TraceContext
}

// Stats aggregates host-level scheduling behavior.
type Stats struct {
	Submitted   int64
	Completed   int64
	ColdStarts  int64
	SchedDelays []time.Duration
	// MaxReady is the peak simultaneous ready instances.
	MaxReady int
}

// Host is one function app (deployment unit). All functions in an app
// share its instance pool, exactly as on the consumption plan.
type Host struct {
	k      *sim.Kernel
	rng    *sim.RNG
	name   string
	params platform.AzureParams

	fns     map[string]*Function
	pending []*workItem
	// pool holds the worker-instance lifecycle (idle tracking,
	// provisioning counters, reaping, cold-start stats); this package
	// keeps the scale-controller policy that drives it.
	pool  platform.Pool
	stats Stats

	// onHTTPActivity lets layered components (durable task hub) reset
	// their queue-poll back-off when an HTTP trigger proves the app is
	// active.
	onHTTPActivity []func()
	// listeners are the app's queue-trigger listeners. Every Submit
	// kicks them: an active app's listeners are scheduled eagerly, so
	// they reset their back-off.
	listeners []*queue.Listener

	// Tracer, when non-nil, emits spans per execution: scheduling
	// delay (queue or coldstart) plus handler exec.
	Tracer *span.Tracer

	// Chaos, when non-nil, can recycle the worker instance as it picks
	// up a work item: the instance dies, the item is re-queued, and a
	// fresh (possibly cold) instance retries it.
	Chaos *chaos.Injector

	// timeline, when non-nil, receives dispatch-queue depth and (via the
	// instance pool) ready-instance occupancy gauges (pure observation).
	timeline *tseries.Series

	// scaledFromZeroAt records when the app last left the
	// scaled-to-zero state; queue listeners activating shortly after
	// pay the ColdPollPhase.
	scaledFromZeroAt sim.Time
	everScaled       bool

	// controllerArmed tracks whether a scale-controller tick is queued;
	// ticks are scheduled lazily so an idle app generates no events and
	// Kernel.Run terminates.
	controllerArmed bool
	stopped         bool
	stop            *sim.Future[struct{}]
}

// NewHost creates an app named name, scaled to zero.
func NewHost(k *sim.Kernel, name string, params platform.AzureParams) *Host {
	h := &Host{
		k:      k,
		rng:    k.Stream("azure/host/" + name),
		name:   name,
		params: params,
		fns:    make(map[string]*Function),
		stop:   sim.NewFuture[struct{}](k),
	}
	return h
}

// Name returns the app name.
func (h *Host) Name() string { return h.name }

// Params returns the calibration parameters.
func (h *Host) Params() platform.AzureParams { return h.params }

// Kernel returns the simulation kernel.
func (h *Host) Kernel() *sim.Kernel { return h.k }

// Stats returns a snapshot of scheduling statistics, merging the
// host's submission counters with the instance pool's lifecycle stats.
func (h *Host) Stats() Stats {
	s := h.stats
	ps := h.pool.Stats()
	s.ColdStarts = ps.ColdStarts
	s.MaxReady = ps.MaxReady
	return s
}

// SetTimeline enables per-window telemetry gauges: dispatch-queue depth
// on every Submit/requeue, plus the instance pool's ready-instance
// occupancy. Pure observation — no events, no RNG draws.
func (h *Host) SetTimeline(tl *tseries.Series) {
	h.timeline = tl
	h.pool.Timeline = tl
}

// ReadyInstances returns the number of started instances.
func (h *Host) ReadyInstances() int { return h.pool.Ready() }

// PendingWork returns the dispatch-queue length.
func (h *Host) PendingWork() int { return len(h.pending) }

// Register adds a function to the app.
func (h *Host) Register(cfg Config) (*Function, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("functions: name required")
	}
	if _, dup := h.fns[cfg.Name]; dup {
		return nil, fmt.Errorf("functions: %q already registered", cfg.Name)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("functions: %q has no handler", cfg.Name)
	}
	if cfg.ConsumedMemMB <= 0 {
		cfg.ConsumedMemMB = 128
	}
	if cfg.ConsumedMemMB > h.params.MemoryLimitMB {
		return nil, fmt.Errorf("functions: %q consumed memory %d exceeds plan limit %d", cfg.Name, cfg.ConsumedMemMB, h.params.MemoryLimitMB)
	}
	f := &Function{cfg: cfg}
	h.fns[cfg.Name] = f
	return f, nil
}

// MustRegister is Register that panics on error.
func (h *Host) MustRegister(cfg Config) *Function {
	f, err := h.Register(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Function returns a registered function.
func (h *Host) Function(name string) (*Function, bool) {
	f, ok := h.fns[name]
	return f, ok
}

// OnHTTPActivity registers a callback fired whenever an HTTP trigger
// reaches the app (used by the durable extension to reset poll back-off).
func (h *Host) OnHTTPActivity(fn func()) { h.onHTTPActivity = append(h.onHTTPActivity, fn) }

// Submit enqueues an execution of fn and returns a future for its
// result. It may be called from kernel or process context. Submitting
// to an idle app triggers immediate scale-out of one instance (the
// HTTP-style activation path); further growth is up to the controller.
func (h *Host) Submit(fn string, payload []byte) (*sim.Future[Result], error) {
	return h.SubmitCtx(fn, payload, sim.TraceContext{})
}

// SubmitCtx is Submit with an explicit trace context for the execution's
// spans, for callers that have one to propagate (HTTP triggers, queue
// listeners, the durable task hub). Submit may be called from kernel
// context, where there is no process to read the context from.
func (h *Host) SubmitCtx(fn string, payload []byte, ctx sim.TraceContext) (*sim.Future[Result], error) {
	if _, ok := h.fns[fn]; !ok {
		return nil, fmt.Errorf("functions: no such function %q", fn)
	}
	wi := &workItem{fn: fn, payload: payload, submitted: h.k.Now(), done: sim.NewFuture[Result](h.k), ctx: ctx}
	h.stats.Submitted++
	for _, l := range h.listeners {
		l.Kick()
	}
	h.pending = append(h.pending, wi)
	h.timeline.ObserveQueueDepth(h.k.Now(), int64(len(h.pending)))
	h.dispatch()
	if h.pool.Provisioning() == 0 {
		h.startInstance()
	}
	h.armController()
	return wi.done, nil
}

// InvokeHTTP is the HTTP-trigger entry: front-end RTT, then submit and
// wait for the result.
func (h *Host) InvokeHTTP(p *sim.Proc, fn string, payload []byte) (Result, error) {
	fut, err := h.InvokeHTTPAsync(p, fn, payload)
	if err != nil {
		return Result{}, err
	}
	res, _ := fut.Await(p)
	return res, nil
}

// InvokeHTTPAsync is InvokeHTTP without waiting for the execution to
// finish (HTTP 202-style), used by chains whose completion is observed
// elsewhere.
func (h *Host) InvokeHTTPAsync(p *sim.Proc, fn string, payload []byte) (*sim.Future[Result], error) {
	p.Sleep(h.params.HTTPTriggerRTT.Sample(h.rng))
	for _, cb := range h.onHTTPActivity {
		cb()
	}
	return h.SubmitCtx(fn, payload, p.TraceCtx)
}

// dispatch pairs pending work with idle instances.
func (h *Host) dispatch() {
	for len(h.pending) > 0 {
		inst, ok := h.pool.PopIdle()
		if !ok {
			return
		}
		wi := h.pending[0]
		h.pending = h.pending[1:]
		h.run(inst, wi)
	}
}

// run executes one work item on an instance, then returns the instance
// to the pool (or hands it the next pending item).
func (h *Host) run(inst *platform.Container, wi *workItem) {
	f := h.fns[wi.fn]
	h.k.Spawn(fmt.Sprintf("%s/%s", h.name, wi.fn), func(p *sim.Proc) {
		sched := p.Now() - wi.submitted
		h.stats.SchedDelays = append(h.stats.SchedDelays, sched)
		if sched > 0 {
			// Emitted in hindsight: cold if a fresh instance was
			// provisioned for this item, plain scheduling wait otherwise.
			k, n := span.KindQueue, "func/sched/"+wi.fn
			if wi.cold {
				k, n = span.KindCold, "func/cold/"+wi.fn
			}
			h.Tracer.Emit(k, n, wi.submitted, p.Now(), wi.ctx)
		}
		p.Sleep(h.params.Dispatch.Sample(h.rng))

		if h.Chaos != nil {
			if flt, ok := h.Chaos.Next(wi.ctx, "azfunc", wi.fn); ok {
				// Host recycle: the instance dies before the handler
				// starts. The burnt ramp-up time is billed, the work
				// item goes back on the dispatch queue (its result
				// future stays open), and a surviving or fresh instance
				// retries it — possibly behind a new cold start.
				crashStart := p.Now()
				p.Sleep(flt.Delay)
				f.Meter.RecordAzure(p.Now()-crashStart, f.cfg.ConsumedMemMB)
				h.pool.Retire(inst)
				h.Chaos.NoteRedispatch()
				wi.cold = false
				h.pending = append(h.pending, wi)
				h.timeline.ObserveQueueDepth(p.Now(), int64(len(h.pending)))
				h.dispatch()
				if h.pool.Provisioning() == 0 {
					h.startInstance()
				}
				h.armController()
				return
			}
		}

		execStart := p.Now()
		execSpan := h.Tracer.Start(execStart, span.KindExec, "func/exec/"+wi.fn, wi.ctx)
		p.TraceCtx = execSpan.Context()
		out, err := f.cfg.Handler(&Context{p: p, host: h, fn: f}, wi.payload)
		p.TraceCtx = wi.ctx
		exec := p.Now() - execStart
		if exec > h.params.TimeLimit {
			exec = h.params.TimeLimit
			err = fmt.Errorf("functions: %s exceeded %v time limit", wi.fn, h.params.TimeLimit)
			out = nil
		}
		// Span end matches the billed (clamped) duration, like the meter.
		execSpan.End(execStart + exec)
		f.Meter.RecordAzure(exec, f.cfg.ConsumedMemMB)
		f.Execs++
		if err != nil {
			f.Errors++
		}
		h.stats.Completed++
		wi.done.Complete(Result{Output: out, Err: err, SchedDelay: sched, Cold: wi.cold, ExecTime: exec}, nil)

		// Instance picks up the next item or goes idle.
		if inst.Stopped {
			return
		}
		if len(h.pending) > 0 {
			next := h.pending[0]
			h.pending = h.pending[1:]
			h.run(inst, next)
			return
		}
		h.pool.PushIdle(inst, p.Now())
		h.armController() // idle instances must eventually be reaped
	})
}

// startInstance begins provisioning a new worker.
func (h *Host) startInstance() {
	if h.pool.Provisioning() >= h.params.MaxInstances {
		return
	}
	if h.pool.Provisioning() == 0 {
		h.scaledFromZeroAt = h.k.Now()
		h.everScaled = true
	}
	h.pool.BeginStart()
	// The controller binds a queued item to the starting instance at
	// launch time (message prefetch); if this instance start stalls,
	// that item waits out the stall — the Fig 14 tail mechanism.
	var reserved *workItem
	if len(h.pending) > 0 {
		reserved = h.pending[0]
		h.pending = h.pending[1:]
		reserved.cold = true
	}
	delay := h.params.InstanceColdStart.Sample(h.rng)
	h.k.After(delay, func() {
		inst := h.pool.FinishStart(h.k.Now())
		if reserved != nil {
			h.run(inst, reserved)
			return
		}
		if len(h.pending) > 0 {
			wi := h.pending[0]
			h.pending = h.pending[1:]
			wi.cold = true
			h.run(inst, wi)
			return
		}
		h.pool.PushIdle(inst, h.k.Now())
		h.armController()
	})
}

// armController schedules the next scale-controller tick if one is not
// already queued and there is anything for it to do.
func (h *Host) armController() {
	if h.controllerArmed || h.stopped {
		return
	}
	if len(h.pending) == 0 && h.pool.IdleCount() == 0 && h.pool.Starting() == 0 {
		return
	}
	h.controllerArmed = true
	h.k.After(h.params.ScaleEvalInterval, h.controllerTick)
}

// controllerTick is one scale-controller evaluation: scale out while
// work is queued, reap instances idle past the timeout, re-arm if more
// work remains.
func (h *Host) controllerTick() {
	h.controllerArmed = false
	if h.stopped {
		return
	}
	if len(h.pending) > 0 {
		for i := 0; i < h.params.ScaleOutStep; i++ {
			h.startInstance()
		}
	}
	h.pool.ReapIdle(h.k.Now() - h.params.IdleInstanceTimeout)
	h.armController()
}

// Stop halts the scale controller and all queue-trigger listeners (so a
// Kernel.Run over a finished workload terminates).
func (h *Host) Stop() {
	h.stopped = true
	if !h.stop.Done() {
		h.stop.Complete(struct{}{}, nil)
	}
}

// StopSignal exposes the host's stop future for layered listeners.
func (h *Host) StopSignal() *sim.Future[struct{}] { return h.stop }

// TotalMeter sums billing across all functions in the app.
func (h *Host) TotalMeter() platform.Meter {
	// Sum in sorted name order: float accumulation must not depend on
	// map iteration order, or two identical campaigns can disagree in
	// the last ULP of the billed GB-s.
	names := make([]string, 0, len(h.fns))
	for name := range h.fns {
		names = append(names, name)
	}
	sort.Strings(names)
	var m platform.Meter
	for _, name := range names {
		m.Add(h.fns[name].Meter)
	}
	return m
}

// ResetMeters zeroes meters, execution counters, and scheduling stats.
func (h *Host) ResetMeters() {
	for _, f := range h.fns {
		f.Meter.Reset()
		f.Execs, f.Errors = 0, 0
	}
	h.stats = Stats{}
	h.pool.ResetStats()
}

// QueueTrigger binds fn to a billed storage queue: a listener polls q
// with adaptive back-off (every poll is a billed transaction) and
// submits each message for execution. If the app is scaled to zero when
// a message is found, the scale-controller activation phase
// (ColdPollPhase) is charged before execution — the Az-Queue cold-start
// mechanism.
func (h *Host) QueueTrigger(q *queue.Queue, fn string) error {
	if _, ok := h.fns[fn]; !ok {
		return fmt.Errorf("functions: no such function %q", fn)
	}
	l := queue.NewListener(h.k)
	h.listeners = append(h.listeners, l)
	h.k.Spawn(fmt.Sprintf("%s/listener/%s", h.name, q.Name()), func(p *sim.Proc) {
		l.Run(p, q, h.params.TriggerMaxPoll, h.stop, func(m *queue.Message) {
			coldApp := h.pool.Provisioning() == 0 ||
				(h.everScaled && p.Now()-h.scaledFromZeroAt < time.Minute)
			if coldApp {
				// Scale-from-zero listener activation (the
				// Az-Queue cold-start mechanism, Fig 10).
				actStart := p.Now()
				p.Sleep(h.params.ColdPollPhase.Sample(h.rng))
				h.Tracer.Emit(span.KindCold, "func/activation/"+fn, actStart, p.Now(), m.Ctx)
			}
			// SubmitCtx fails only for an unregistered function, and fn
			// was checked above.
			_, _ = h.SubmitCtx(fn, m.Body, m.Ctx)
		})
	})
	return nil
}
