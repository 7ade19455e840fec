// Package lambda simulates AWS Lambda: per-request container scaling
// with cold/warm starts, configurable memory in 128 MB steps, a 256 KB
// synchronous payload limit, the 15-minute execution cap, and billing
// on configured memory with 100 ms duration rounding.
package lambda

import (
	"fmt"
	"sort"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// Handler is the user function body. It runs on the invoking process's
// virtual-time context; compute is modeled by ctx.Busy and I/O by
// calling simulated services with ctx.Proc().
type Handler func(ctx *Context, payload []byte) ([]byte, error)

// Context is passed to handlers.
type Context struct {
	p  *sim.Proc
	fn *Function
}

// Proc returns the simulation process executing this invocation; pass
// it to simulated storage services.
func (c *Context) Proc() *sim.Proc { return c.p }

// Busy consumes d of virtual compute time.
func (c *Context) Busy(d time.Duration) { c.p.Sleep(d) }

// FunctionName returns the executing function's name.
func (c *Context) FunctionName() string { return c.fn.cfg.Name }

// MemoryMB returns the configured memory size.
func (c *Context) MemoryMB() int { return c.fn.cfg.MemoryMB }

// Config describes one Lambda function.
type Config struct {
	Name string
	// MemoryMB is the configured memory; must be a multiple of the
	// platform's memory step (128 MB). Billing uses this value.
	MemoryMB int
	// ConsumedMemMB models the memory the function actually uses
	// (reported, not billed, on AWS).
	ConsumedMemMB int
	// CodeSizeMB is the deployment-package size; it lengthens cold
	// starts (Table II packages are 63–271 MB).
	CodeSizeMB float64
	// Timeout overrides the platform execution cap if smaller.
	Timeout time.Duration
	Handler Handler
}

// Invocation reports one completed invoke.
type Invocation struct {
	Output         []byte
	Cold           bool
	ColdStartDelay time.Duration
	// QueueDelay is time spent waiting for burst-concurrency capacity.
	QueueDelay time.Duration
	// ExecTime is handler wall time (billed after rounding).
	ExecTime time.Duration
	// Total is RTT + start + queue + exec.
	Total time.Duration
	Err   error
}

// Stats aggregates per-function invoke outcomes.
type Stats struct {
	Invokes    int64
	ColdStarts int64
	Errors     int64
	// ColdDelays holds each cold start's delay (for Fig 10/13).
	ColdDelays []time.Duration
}

// Function is a registered Lambda function. Container lifecycle —
// warm reuse, keep-alive expiry, cold-start stats — lives in the
// shared platform.Pool; this package keeps the per-request scaling
// policy (every invocation acquires its own container).
type Function struct {
	cfg   Config
	svc   *Service
	pool  platform.Pool
	slots *sim.Resource
	Meter platform.Meter
	stats Stats
}

// Stats returns a snapshot of invoke outcomes, merging the function's
// invoke counters with the container pool's cold-start statistics.
func (f *Function) Stats() Stats {
	s := f.stats
	ps := f.pool.Stats()
	s.ColdStarts = ps.ColdStarts
	s.ColdDelays = ps.ColdDelays
	return s
}

// Config returns the function's configuration.
func (f *Function) Config() Config { return f.cfg }

// WarmContainers returns how many idle warm containers exist now.
func (f *Function) WarmContainers(now sim.Time) int { return f.pool.WarmCount(now) }

// Service is the simulated Lambda control plane.
type Service struct {
	k      *sim.Kernel
	rng    *sim.RNG
	params platform.AWSParams
	fns    map[string]*Function
	// Tracer, when non-nil, emits X-Ray-style spans per invocation:
	// an invoke span wrapping queue/coldstart/exec child spans.
	Tracer *span.Tracer
	// Chaos, when non-nil, can fail invocations with transient errors,
	// kill the executing container mid-invoke (the warm container is
	// lost), or stretch execution past the configured timeout.
	Chaos *chaos.Injector
	// timeline, when non-nil, receives warm-pool occupancy gauges from
	// every function's container pool (pure observation).
	timeline *tseries.Series
}

// New creates a Lambda service with the given calibration parameters.
func New(k *sim.Kernel, params platform.AWSParams) *Service {
	return &Service{k: k, rng: k.Stream("aws/lambda"), params: params, fns: make(map[string]*Function)}
}

// Params returns the service's calibration parameters.
func (s *Service) Params() platform.AWSParams { return s.params }

// SetTimeline enables per-window warm-pool occupancy gauges on every
// registered function's container pool, existing and future.
func (s *Service) SetTimeline(tl *tseries.Series) {
	s.timeline = tl
	for _, f := range s.fns {
		f.pool.Timeline = tl
	}
}

// Register adds a function. It validates the memory configuration.
func (s *Service) Register(cfg Config) (*Function, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("lambda: function name required")
	}
	if _, dup := s.fns[cfg.Name]; dup {
		return nil, fmt.Errorf("lambda: function %q already registered", cfg.Name)
	}
	if cfg.MemoryMB <= 0 || cfg.MemoryMB%s.params.MemoryStepMB != 0 {
		return nil, fmt.Errorf("lambda: memory %d MB must be a positive multiple of %d", cfg.MemoryMB, s.params.MemoryStepMB)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("lambda: function %q has no handler", cfg.Name)
	}
	if cfg.ConsumedMemMB <= 0 {
		cfg.ConsumedMemMB = cfg.MemoryMB
	}
	if cfg.Timeout <= 0 || cfg.Timeout > s.params.TimeLimit {
		cfg.Timeout = s.params.TimeLimit
	}
	f := &Function{cfg: cfg, svc: s, slots: sim.NewResource(s.k, s.params.BurstConcurrency)}
	f.pool.KeepAlive = s.params.KeepAlive
	f.pool.Timeline = s.timeline
	s.fns[cfg.Name] = f
	return f, nil
}

// MustRegister is Register that panics on error, for tests and fixed
// deployment code.
func (s *Service) MustRegister(cfg Config) *Function {
	f, err := s.Register(cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Function returns a registered function by name.
func (s *Service) Function(name string) (*Function, bool) {
	f, ok := s.fns[name]
	return f, ok
}

// TimeoutError reports an execution that exceeded its time limit.
type TimeoutError struct {
	Function string
	Limit    time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("lambda: %s timed out after %v", e.Function, e.Limit)
}

// PayloadTooLargeError reports an oversized synchronous payload.
type PayloadTooLargeError struct {
	Function string
	Size     int
	Limit    int
}

func (e *PayloadTooLargeError) Error() string {
	return fmt.Sprintf("lambda: payload for %s is %d bytes, limit %d", e.Function, e.Size, e.Limit)
}

// Invoke synchronously invokes a function from process p, blocking until
// the handler returns. Handler errors are reported in Invocation.Err
// (the Invocation still carries timing); infrastructure errors (unknown
// function, oversized payload) are returned as err.
func (s *Service) Invoke(p *sim.Proc, name string, payload []byte) (*Invocation, error) {
	f, ok := s.fns[name]
	if !ok {
		return nil, fmt.Errorf("lambda: no such function %q", name)
	}
	if s.params.PayloadLimit > 0 && len(payload) > s.params.PayloadLimit {
		return nil, &PayloadTooLargeError{Function: name, Size: len(payload), Limit: s.params.PayloadLimit}
	}
	start := p.Now()
	caller := p.TraceCtx
	invSpan := s.Tracer.Start(start, span.KindInvoke, "lambda/"+name, caller)
	invCtx := invSpan.Context()
	p.Sleep(s.params.InvokeRTT.Sample(s.rng))

	// Burst-concurrency admission.
	qStart := p.Now()
	f.slots.Acquire(p)
	queueDelay := p.Now() - qStart
	if queueDelay > 0 {
		s.Tracer.Emit(span.KindQueue, "lambda/admission/"+name, qStart, p.Now(), invCtx)
	}

	inv := &Invocation{QueueDelay: queueDelay}
	f.stats.Invokes++

	// Container acquisition: reuse a warm container or cold start.
	if _, ok := f.pool.TakeWarm(p.Now()); ok {
		p.Sleep(s.params.WarmStart.Sample(s.rng))
	} else {
		inv.Cold = true
		delay := s.params.ColdStartBase.Sample(s.rng)
		if s.params.CodeFetchBW > 0 {
			delay += time.Duration(f.cfg.CodeSizeMB * 1e6 / s.params.CodeFetchBW * float64(time.Second))
		}
		inv.ColdStartDelay = delay
		f.pool.RecordCold(delay)
		coldStart := p.Now()
		p.Sleep(delay)
		s.Tracer.Emit(span.KindCold, "lambda/cold/"+name, coldStart, p.Now(), invCtx)
	}

	var fault chaos.Fault
	faulted := false
	if s.Chaos != nil {
		fault, faulted = s.Chaos.Next(invCtx, "lambda", name)
	}

	execStart := p.Now()
	execSpan := s.Tracer.Start(execStart, span.KindExec, "lambda/exec/"+name, invCtx)
	crashed := false
	var out []byte
	var err error
	if faulted && (fault.Kind == chaos.TransientError || fault.Kind == chaos.Crash) {
		// The handler runs partially, then the error (or the container
		// death) cuts it short. Partial execution is still billed.
		p.Sleep(fault.Delay)
		err = &chaos.FaultError{Kind: fault.Kind, Component: "lambda", Name: name}
		crashed = fault.Kind == chaos.Crash
	} else {
		if faulted && fault.Kind == chaos.TimeoutSpike {
			// Runtime stall inside the execution window; may push the
			// invocation over its configured timeout below.
			p.Sleep(fault.Delay)
		}
		p.TraceCtx = execSpan.Context()
		out, err = f.cfg.Handler(&Context{p: p, fn: f}, payload)
		p.TraceCtx = caller
	}
	exec := p.Now() - execStart
	if exec > f.cfg.Timeout {
		exec = f.cfg.Timeout
		err = &TimeoutError{Function: name, Limit: f.cfg.Timeout}
		out = nil
	}
	// The exec span ends at the *billed* duration so span-derived
	// breakdowns agree with the meter (timeouts clamp both the same way).
	execSpan.End(execStart + exec)
	f.Meter.RecordAWS(exec, f.cfg.MemoryMB, f.cfg.ConsumedMemMB)

	// Return the container to the warm pool — unless it crashed, in
	// which case the next invocation pays a fresh cold start.
	if !crashed {
		f.pool.Release(p.Now())
	}
	f.slots.Release()

	inv.Output = out
	inv.Err = err
	if err != nil {
		f.stats.Errors++
	}
	inv.ExecTime = exec
	inv.Total = p.Now() - start
	if invSpan.Live() {
		attrs := []span.Attr{span.A("cold", boolStr(inv.Cold))}
		if err != nil {
			attrs = append(attrs, span.A("error", err.Error()))
		}
		invSpan.End(p.Now(), attrs...)
	}
	return inv, nil
}

func boolStr(b bool) string {
	if b {
		return "true"
	}
	return "false"
}

// TotalMeter sums billing meters across all functions.
func (s *Service) TotalMeter() platform.Meter {
	// Sum in sorted name order: float accumulation must not depend on
	// map iteration order, or two identical campaigns can disagree in
	// the last ULP of the billed GB-s.
	names := make([]string, 0, len(s.fns))
	for name := range s.fns {
		names = append(names, name)
	}
	sort.Strings(names)
	var m platform.Meter
	for _, name := range names {
		m.Add(s.fns[name].Meter)
	}
	return m
}

// ResetMeters zeroes all function meters and stats (warm pools are kept).
func (s *Service) ResetMeters() {
	for _, f := range s.fns {
		f.Meter.Reset()
		f.stats = Stats{}
		f.pool.ResetStats()
	}
}
