// Package faas simulates a per-request function service, the execution
// model AWS Lambda and Cloud Functions gen 1 share: every invocation
// takes a warm container or pays a sampled cold start plus code fetch,
// released containers stay warm for a keep-alive lease, a burst limit
// queues invocations beyond it, and billing uses the configured memory
// with the duration rounded up to 100 ms. Each provider builds one
// Service with its own name, RNG stream, memory rule and calibration
// (platform.FaaSParams); internal/aws and internal/gcp are the callers.
package faas

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
	p *sim.Proc
}

// Proc returns the simulation process executing this invocation; pass
// it to simulated storage services.
func (c *Context) Proc() *sim.Proc { return c.p }

// Busy consumes d of virtual compute time.
func (c *Context) Busy(d time.Duration) { c.p.Sleep(d) }

// Config describes one function.
type Config struct {
	Name string
	// MemoryMB is the configured memory; it must satisfy the service's
	// memory rule. Billing uses this value.
	MemoryMB int
	// ConsumedMemMB models the memory the function actually uses
	// (reported, not billed).
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
	// ExecTime is handler wall time (billed after rounding).
	ExecTime time.Duration
	// Total is RTT + start + queue + exec.
	Total time.Duration
	Err   error
}

// Function is a registered function. Container lifecycle — warm
// reuse, keep-alive expiry, cold-start stats — lives in its
// platform.Pool; every invocation acquires its own container.
type Function struct {
	cfg   Config
	pool  platform.Pool
	slots *sim.Resource
	Meter platform.Meter
}

// MemoryRule validates a configured memory size; a non-nil error
// rejects the registration.
type MemoryRule func(memoryMB int) error

// MemoryStep accepts positive multiples of step MB (Lambda's 128 MB
// granularity).
func MemoryStep(step int) MemoryRule {
	return func(mb int) error {
		if mb <= 0 || mb%step != 0 {
			return fmt.Errorf("memory %d MB must be a positive multiple of %d", mb, step)
		}
		return nil
	}
}

// MemoryTiers accepts only the listed sizes (Cloud Functions gen 1's
// fixed tiers).
func MemoryTiers(tiers []int) MemoryRule {
	return func(mb int) error {
		for _, t := range tiers {
			if t == mb {
				return nil
			}
		}
		return fmt.Errorf("memory %d MB is not a configurable tier %v", mb, tiers)
	}
}

// Service is one provider's simulated function control plane.
type Service struct {
	name   string
	rng    *sim.RNG
	memory MemoryRule
	params platform.FaaSParams
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

// New creates a function service. name prefixes its span names, error
// messages and chaos component ("lambda", "gcf"); stream names the
// kernel RNG stream its latencies are drawn from; memory validates
// each function's configured memory.
func New(k *sim.Kernel, name, stream string, memory MemoryRule, params platform.FaaSParams) *Service {
	return &Service{name: name, rng: k.Stream(stream), memory: memory, params: params, fns: make(map[string]*Function)}
}

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
		return nil, fmt.Errorf("%s: function name required", s.name)
	}
	if _, dup := s.fns[cfg.Name]; dup {
		return nil, fmt.Errorf("%s: function %q already registered", s.name, cfg.Name)
	}
	if err := s.memory(cfg.MemoryMB); err != nil {
		return nil, fmt.Errorf("%s: %w", s.name, err)
	}
	if cfg.Handler == nil {
		return nil, fmt.Errorf("%s: function %q has no handler", s.name, cfg.Name)
	}
	if cfg.ConsumedMemMB <= 0 {
		cfg.ConsumedMemMB = cfg.MemoryMB
	}
	if cfg.Timeout <= 0 || cfg.Timeout > s.params.TimeLimit {
		cfg.Timeout = s.params.TimeLimit
	}
	f := &Function{cfg: cfg, slots: sim.NewResource(s.params.BurstConcurrency)}
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
	Service  string
	Function string
	Limit    time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("%s: %s timed out after %v", e.Service, e.Function, e.Limit)
}

// PayloadTooLargeError reports an oversized synchronous payload.
type PayloadTooLargeError struct {
	Service  string
	Function string
	Size     int
	Limit    int
}

func (e *PayloadTooLargeError) Error() string {
	return fmt.Sprintf("%s: payload for %s is %d bytes, limit %d", e.Service, e.Function, e.Size, e.Limit)
}

// Invoke synchronously invokes a function from process p, blocking until
// the handler returns. Handler errors are reported in Invocation.Err
// (the Invocation still carries timing); infrastructure errors (unknown
// function, oversized payload) are returned as err.
func (s *Service) Invoke(p *sim.Proc, name string, payload []byte) (*Invocation, error) {
	f, ok := s.fns[name]
	if !ok {
		return nil, fmt.Errorf("%s: no such function %q", s.name, name)
	}
	if s.params.PayloadLimit > 0 && len(payload) > s.params.PayloadLimit {
		return nil, &PayloadTooLargeError{Service: s.name, Function: name, Size: len(payload), Limit: s.params.PayloadLimit}
	}
	start := p.Now()
	caller := p.TraceCtx
	invSpan := s.Tracer.Start(start, span.KindInvoke, s.name+"/"+name, caller)
	invCtx := invSpan.Context()
	p.Sleep(s.params.InvokeRTT.Sample(s.rng))

	// Burst-concurrency admission.
	qStart := p.Now()
	f.slots.Acquire(p)
	if p.Now() > qStart {
		s.Tracer.Emit(span.KindQueue, s.name+"/admission/"+name, qStart, p.Now(), invCtx)
	}

	inv := &Invocation{}

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
		coldStart := p.Now()
		p.Sleep(delay)
		s.Tracer.Emit(span.KindCold, s.name+"/cold/"+name, coldStart, p.Now(), invCtx)
	}

	var fault chaos.Fault
	faulted := false
	if s.Chaos != nil {
		fault, faulted = s.Chaos.Next(invCtx, s.name, name)
	}

	execStart := p.Now()
	execSpan := s.Tracer.Start(execStart, span.KindExec, s.name+"/exec/"+name, invCtx)
	crashed := false
	var out []byte
	var err error
	if faulted && (fault.Kind == chaos.TransientError || fault.Kind == chaos.Crash) {
		// The handler runs partially, then the error (or the container
		// death) cuts it short. Partial execution is still billed.
		p.Sleep(fault.Delay)
		err = &chaos.FaultError{Kind: fault.Kind, Component: s.name, Name: name}
		crashed = fault.Kind == chaos.Crash
	} else {
		if faulted && fault.Kind == chaos.TimeoutSpike {
			// Runtime stall inside the execution window; may push the
			// invocation over its configured timeout below.
			p.Sleep(fault.Delay)
		}
		p.TraceCtx = execSpan.Context()
		out, err = f.cfg.Handler(&Context{p: p}, payload)
		p.TraceCtx = caller
	}
	exec := p.Now() - execStart
	if exec > f.cfg.Timeout {
		exec = f.cfg.Timeout
		err = &TimeoutError{Service: s.name, Function: name, Limit: f.cfg.Timeout}
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
