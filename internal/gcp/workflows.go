package gcp

import (
	"fmt"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/cloud/faas"
	"statebench/internal/obs/span"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// Workflows is the simulated GCP Workflows engine: a code-first
// orchestrator (workflow definitions are Go closures standing in for
// the YAML DSL) whose call steps invoke Cloud Functions. Every
// executed step is billed — steps are GCP's analogue of AWS's state
// transitions and the StatefulTxns of the GCP price book.
type Workflows struct {
	rng    *sim.RNG
	params platform.GCPParams
	fns    *faas.Service
	wfs    map[string]Definition
	// TotalSteps aggregates billable executed steps across all
	// executions (retried steps bill again).
	TotalSteps int64
	// Tracer, when non-nil, emits an orchestration span per execution
	// and a transition span per billable step.
	Tracer *span.Tracer
	// Chaos, when non-nil, can fail call steps at the connector
	// boundary (component "gwf"), driving the default retry policy.
	Chaos *chaos.Injector
}

// Definition is one workflow body. It runs on the calling process's
// virtual-time context; all platform effects go through ctx.
type Definition func(ctx *Ctx, input map[string]any) (map[string]any, error)

// NewWorkflows creates a Workflows engine bound to a Cloud Functions service.
func NewWorkflows(k *sim.Kernel, params platform.GCPParams, fns *faas.Service) *Workflows {
	return &Workflows{rng: k.Stream("gcp/workflows"), params: params, fns: fns, wfs: make(map[string]Definition)}
}

// Create registers a workflow definition under name.
func (s *Workflows) Create(name string, def Definition) error {
	if name == "" {
		return fmt.Errorf("gwf: workflow name required")
	}
	if def == nil {
		return fmt.Errorf("gwf: workflow %q has no definition", name)
	}
	if _, dup := s.wfs[name]; dup {
		return fmt.Errorf("gwf: workflow %q already exists", name)
	}
	s.wfs[name] = def
	return nil
}

// Execution records one workflow run.
type Execution struct {
	Workflow  string
	StartedAt sim.Time
	EndedAt   sim.Time
	// Steps is the billable executed-step count of this run.
	Steps int64
	// FirstCallDelay is the time from execution start until the first
	// called function's handler began executing — the cold-start metric
	// mirroring sfn.Execution.FirstTaskDelay. Negative: no call ran.
	FirstCallDelay time.Duration
	Output         map[string]any
	Err            error

	firstCallAt  sim.Time
	sawFirstCall bool
}

// Duration returns the end-to-end execution latency.
func (e *Execution) Duration() time.Duration { return e.EndedAt - e.StartedAt }

// Ctx is the workflow-body handle; it meters steps and routes calls.
type Ctx struct {
	p    *sim.Proc
	exec *Execution
	svc  *Workflows
}

// Proc returns the simulation process running this workflow branch.
func (c *Ctx) Proc() *sim.Proc { return c.p }

// Execute runs workflow name with input, blocking process p until the
// definition returns.
func (s *Workflows) Execute(p *sim.Proc, name string, input map[string]any) (*Execution, error) {
	def, ok := s.wfs[name]
	if !ok {
		return nil, fmt.Errorf("gwf: no such workflow %q", name)
	}
	exec := &Execution{Workflow: name, StartedAt: p.Now(), FirstCallDelay: -1}
	caller := p.TraceCtx
	execSpan := s.Tracer.Start(p.Now(), span.KindOrchestration, "gwf/"+name, caller)
	p.TraceCtx = execSpan.Context()
	ctx := &Ctx{p: p, exec: exec, svc: s}
	// The engine's init step (argument binding) bills like any other.
	ctx.step("init")
	out, err := def(ctx, input)
	p.TraceCtx = caller
	exec.EndedAt = p.Now()
	exec.Output = out
	exec.Err = err
	if exec.sawFirstCall {
		exec.FirstCallDelay = exec.firstCallAt - exec.StartedAt
	}
	if execSpan.Live() {
		execSpan.End(p.Now(), span.A("steps", fmt.Sprintf("%d", exec.Steps)))
	}
	return exec, nil
}

// step meters one billable executed step and applies the engine's
// per-step scheduling overhead.
func (c *Ctx) step(name string) {
	c.exec.Steps++
	c.svc.TotalSteps++
	tStart := c.p.Now()
	c.p.Sleep(c.svc.params.StepOverhead.Sample(c.svc.rng))
	c.svc.Tracer.Emit(span.KindTransition, "gwf/step/"+name, tStart, c.p.Now(), c.p.TraceCtx)
}

// CallError reports a call step that failed after exhausting retries.
type CallError struct {
	Function string
	Cause    error
}

func (e *CallError) Error() string {
	return fmt.Sprintf("gwf: call %s failed: %v", e.Function, e.Cause)
}

func (e *CallError) Unwrap() error { return e.Cause }

// Call executes one call step: it invokes a Cloud Function and returns
// its output, retrying transient failures under the engine's default
// retry policy (5 attempts, exponential backoff — the YAML
// `http.default_retry` equivalent). Each attempt is a billed step.
func (c *Ctx) Call(fn string, payload []byte) ([]byte, error) {
	const maxAttempts = 5
	backoff := time.Second
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			c.svc.Chaos.NoteRetry(backoff)
			c.p.Sleep(backoff)
			backoff *= 2
		}
		c.step(fn)
		out, err := c.callOnce(fn, payload)
		if err == nil {
			return out, nil
		}
		lastErr = err
		var infra *infraError
		if isInfra(err, &infra) {
			// Unknown function / oversized payload: not retriable.
			return nil, infra.err
		}
	}
	return nil, &CallError{Function: fn, Cause: lastErr}
}

// infraError marks non-retriable infrastructure failures inside the
// retry loop.
type infraError struct{ err error }

func (e *infraError) Error() string { return e.err.Error() }

func isInfra(err error, out **infraError) bool {
	ie, ok := err.(*infraError)
	if ok {
		*out = ie
	}
	return ok
}

// callOnce performs one call attempt: chaos check at the connector
// boundary, dispatch hop, then the synchronous function invocation.
func (c *Ctx) callOnce(fn string, payload []byte) ([]byte, error) {
	p := c.p
	if c.svc.Chaos != nil {
		if flt, ok := c.svc.Chaos.Next(p.TraceCtx, "gwf", fn); ok {
			// The step fails at the connector (transient 5xx, worker
			// lost) after Delay of wasted wall time.
			p.Sleep(flt.Delay)
			return nil, &chaos.FaultError{Kind: flt.Kind, Component: "gwf", Name: fn}
		}
	}
	dStart := p.Now()
	p.Sleep(c.svc.params.CallDispatch.Sample(c.svc.rng))
	c.svc.Tracer.Emit(span.KindTransition, "gwf/dispatch/"+fn, dStart, p.Now(), p.TraceCtx)
	inv, err := c.svc.fns.Invoke(p, fn, payload)
	if err != nil {
		return nil, &infraError{err: err}
	}
	c.noteCallStart(p.Now() - inv.ExecTime)
	if inv.Err != nil {
		return nil, inv.Err
	}
	return inv.Output, nil
}

// noteCallStart tracks the earliest called-handler start for the
// cold-start metric.
func (c *Ctx) noteCallStart(handlerStart sim.Time) {
	e := c.exec
	if !e.sawFirstCall || handlerStart < e.firstCallAt {
		e.firstCallAt = handlerStart
		e.sawFirstCall = true
	}
}

// Parallel executes branches concurrently (the DSL's `parallel` block;
// one billed step for the block itself) and blocks until all complete,
// returning the first branch error.
func (c *Ctx) Parallel(branches ...func(bc *Ctx) error) error {
	c.step("parallel")
	if len(branches) == 0 {
		return nil
	}
	k := c.p.Kernel()
	futures := make([]*sim.Future[struct{}], len(branches))
	branchCtx := c.p.TraceCtx
	for i, branch := range branches {
		branch := branch
		f := sim.NewFuture[struct{}](k)
		futures[i] = f
		k.Spawn(fmt.Sprintf("gwf-branch-%d", i), func(bp *sim.Proc) {
			bp.TraceCtx = branchCtx
			bc := &Ctx{p: bp, exec: c.exec, svc: c.svc}
			f.Complete(struct{}{}, branch(bc))
		})
	}
	_, err := sim.AwaitAll(c.p, futures)
	return err
}
