package sfn

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/cloud/faas"
	"statebench/internal/obs/span"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// Service is the simulated Step Functions control plane. Task states
// invoke functions on the attached Lambda service.
type Service struct {
	rng      *sim.RNG
	params   platform.AWSParams
	lambda   *faas.Service
	machines map[string]*StateMachine
	// TotalTransitions aggregates billable transitions across all
	// executions.
	TotalTransitions int64
	// Tracer, when non-nil, emits an orchestration span per execution
	// and a transition span per billable state transition.
	Tracer *span.Tracer
	// Chaos, when non-nil, can fail Task states with retriable
	// "States.TaskFailed" errors, driving the Retry/Catch machinery.
	Chaos *chaos.Injector
}

// New creates a Step Functions service bound to a Lambda service.
func New(k *sim.Kernel, params platform.AWSParams, lsvc *faas.Service) *Service {
	return &Service{rng: k.Stream("aws/sfn"), params: params, lambda: lsvc, machines: make(map[string]*StateMachine)}
}

// CreateStateMachine validates and registers a machine under name.
func (s *Service) CreateStateMachine(name string, sm *StateMachine) error {
	if name == "" {
		return fmt.Errorf("sfn: machine name required")
	}
	if _, dup := s.machines[name]; dup {
		return fmt.Errorf("sfn: machine %q already exists", name)
	}
	if err := sm.Validate(); err != nil {
		return err
	}
	s.machines[name] = sm
	return nil
}

// HistoryEvent is one recorded execution event.
type HistoryEvent struct {
	At    sim.Time
	Type  string // StateEntered, TaskSucceeded, TaskFailed, ExecutionSucceeded, ExecutionFailed
	State string
}

// ExecutionError reports a failed execution (Fail state or task error).
type ExecutionError struct {
	ErrorName string
	Cause     string
}

func (e *ExecutionError) Error() string {
	return fmt.Sprintf("sfn: execution failed: %s (%s)", e.ErrorName, e.Cause)
}

// Execution records one state-machine run.
type Execution struct {
	StartedAt sim.Time
	EndedAt   sim.Time
	// Transitions is the billable state-transition count.
	Transitions int64
	// FirstTaskDelay is the time from execution start until the first
	// Task handler began executing — the paper's AWS-Step cold-start
	// metric. Negative means no task ran.
	FirstTaskDelay time.Duration
	History        []HistoryEvent
	Output         any
	Err            error

	svc          *Service
	firstTaskAt  sim.Time
	sawFirstTask bool
}

// Duration returns the end-to-end execution latency ('Start' to 'End').
func (e *Execution) Duration() time.Duration { return e.EndedAt - e.StartedAt }

// StartExecution runs machine name with the given JSON-like input,
// blocking process p until the execution reaches a terminal state.
func (s *Service) StartExecution(p *sim.Proc, name string, input any) (*Execution, error) {
	sm, ok := s.machines[name]
	if !ok {
		return nil, fmt.Errorf("sfn: no such state machine %q", name)
	}
	exec := &Execution{StartedAt: p.Now(), FirstTaskDelay: -1, svc: s}
	caller := p.TraceCtx
	execSpan := s.Tracer.Start(p.Now(), span.KindOrchestration, "sfn/"+name, caller)
	p.TraceCtx = execSpan.Context()
	out, err := s.runMachine(p, exec, sm, input)
	p.TraceCtx = caller
	exec.EndedAt = p.Now()
	exec.Output = out
	exec.Err = err
	if err != nil {
		exec.record(p, "ExecutionFailed", "")
	} else {
		exec.record(p, "ExecutionSucceeded", "")
	}
	if exec.sawFirstTask {
		exec.FirstTaskDelay = exec.firstTaskAt - exec.StartedAt
	}
	if execSpan.Live() {
		execSpan.End(p.Now(), span.A("transitions", fmt.Sprintf("%d", exec.Transitions)))
	}
	return exec, nil
}

func (e *Execution) record(p *sim.Proc, typ, state string) {
	e.History = append(e.History, HistoryEvent{At: p.Now(), Type: typ, State: state})
}

// transition meters one billable state transition and applies the
// state-machine scheduling overhead.
func (e *Execution) transition(p *sim.Proc, state string) {
	e.Transitions++
	e.svc.TotalTransitions++
	tStart := p.Now()
	p.Sleep(e.svc.params.StepTransition.Sample(e.svc.rng))
	e.svc.Tracer.Emit(span.KindTransition, "sfn/state/"+state, tStart, p.Now(), p.TraceCtx)
	e.record(p, "StateEntered", state)
}

// noteTaskStart tracks the earliest Task handler start for the
// cold-start metric. handlerStart is the absolute virtual time the
// handler began.
func (e *Execution) noteTaskStart(handlerStart sim.Time) {
	if !e.sawFirstTask || handlerStart < e.firstTaskAt {
		e.firstTaskAt = handlerStart
		e.sawFirstTask = true
	}
}

// runMachine executes sm (a top-level machine, Map iterator, or
// Parallel branch) on process p with the given input document.
func (s *Service) runMachine(p *sim.Proc, exec *Execution, sm *StateMachine, input any) (any, error) {
	stateName := sm.StartAt
	doc := input
	for {
		st, ok := sm.States[stateName]
		if !ok {
			return nil, fmt.Errorf("sfn: missing state %q", stateName)
		}
		exec.transition(p, stateName)

		effIn, err := applyPath(doc, st.InputPath)
		if err != nil {
			return nil, err
		}

		var result any
		haveResult := false
		switch st.Type {
		case TypeTask, TypeMap, TypeParallel:
			result, err = s.runWithRetry(p, exec, st, effIn)
			if err != nil {
				// Catchers route matching errors to a recovery state
				// with the error info merged at their ResultPath.
				next, newDoc, caught, cerr := applyCatch(st, doc, err)
				if cerr != nil {
					return nil, cerr
				}
				if caught {
					exec.record(p, "CatchMatched", stateName)
					doc = newDoc
					stateName = next
					continue
				}
				return nil, err
			}
			haveResult = true

		case TypePass:
			if st.Result != nil {
				result = st.Result
			} else {
				result = effIn
			}
			haveResult = true

		case TypeWait:
			secs := st.Seconds
			if st.SecondsPath != "" {
				v, err := GetPath(effIn, st.SecondsPath)
				if err != nil {
					return nil, err
				}
				f, ok := asFloat(v)
				if !ok {
					return nil, fmt.Errorf("sfn: Wait %q SecondsPath is not numeric", stateName)
				}
				secs = f
			}
			p.Sleep(time.Duration(secs * float64(time.Second)))
			result = effIn
			haveResult = true

		case TypeChoice:
			next := st.Default
			for i := range st.Choices {
				match, err := evalRule(&st.Choices[i], effIn)
				if err != nil {
					return nil, err
				}
				if match {
					next = st.Choices[i].Next
					break
				}
			}
			if next == "" {
				return nil, &ExecutionError{ErrorName: "States.NoChoiceMatched", Cause: stateName}
			}
			stateName = next
			continue

		case TypeSucceed:
			out, err := applyPath(effIn, st.OutputPath)
			if err != nil {
				return nil, err
			}
			return out, nil

		case TypeFail:
			return nil, &ExecutionError{ErrorName: st.Error, Cause: st.Cause}
		}

		// ResultPath merges the result into the raw input; OutputPath
		// then filters what flows to the next state.
		next := doc
		if haveResult {
			rp := st.ResultPath
			if rp == "" {
				rp = "$"
			}
			next, err = SetPath(doc, rp, result)
			if err != nil {
				return nil, err
			}
		}
		out, err := applyPath(next, st.OutputPath)
		if err != nil {
			return nil, err
		}
		doc = out

		if st.End {
			return doc, nil
		}
		stateName = st.Next
	}
}

// runWithRetry executes a Task/Map/Parallel state body under the
// state's Retry policies: ASL retriers with exponential backoff.
func (s *Service) runWithRetry(p *sim.Proc, exec *Execution, st *State, effIn any) (any, error) {
	attempts := make([]int, len(st.Retry))
	for {
		var result any
		var err error
		switch st.Type {
		case TypeTask:
			result, err = s.runTask(p, exec, st, effIn)
		case TypeMap:
			result, err = s.runMap(p, exec, st, effIn)
		case TypeParallel:
			result, err = s.runParallel(p, exec, st, effIn)
		}
		if err == nil {
			return result, nil
		}
		ri := matchRetrier(st.Retry, errorName(err))
		if ri < 0 {
			return nil, err
		}
		r := st.Retry[ri]
		maxAttempts := r.MaxAttempts
		if maxAttempts == 0 {
			maxAttempts = 3
		}
		if attempts[ri] >= maxAttempts {
			return nil, err
		}
		interval := r.IntervalSeconds
		if interval <= 0 {
			interval = 1
		}
		rate := r.BackoffRate
		if rate <= 0 {
			rate = 2
		}
		delay := interval * pow(rate, attempts[ri])
		attempts[ri]++
		exec.record(p, "RetryScheduled", st.Resource)
		s.Chaos.NoteRetry()
		p.Sleep(time.Duration(delay * float64(time.Second)))
	}
}

// pow is a small float power for backoff computation.
func pow(base float64, exp int) float64 {
	out := 1.0
	for i := 0; i < exp; i++ {
		out *= base
	}
	return out
}

// matchRetrier returns the index of the first retrier matching name.
func matchRetrier(retries []RetryPolicy, name string) int {
	for i, r := range retries {
		if matchesError(r.ErrorEquals, name) {
			return i
		}
	}
	return -1
}

// errorName extracts the ASL error name from an execution error.
func errorName(err error) string {
	var ee *ExecutionError
	if errors.As(err, &ee) && ee.ErrorName != "" {
		return ee.ErrorName
	}
	return "States.TaskFailed"
}

// applyCatch finds the first matching catcher and builds the recovery
// state's input (error info merged at the catcher's ResultPath).
func applyCatch(st *State, doc any, err error) (next string, newDoc any, caught bool, fatal error) {
	name := errorName(err)
	for _, c := range st.Catch {
		if !matchesError(c.ErrorEquals, name) {
			continue
		}
		info := map[string]any{"Error": name, "Cause": err.Error()}
		rp := c.ResultPath
		if rp == "" {
			rp = "$"
		}
		merged, serr := SetPath(doc, rp, info)
		if serr != nil {
			return "", nil, false, serr
		}
		return c.Next, merged, true, nil
	}
	return "", nil, false, nil
}

// runTask marshals the effective input, invokes the Lambda function
// named by Resource, and unmarshals its output. Oversized payloads fail
// the execution, matching the 256 KB service limit the paper works
// around by staging data in S3.
func (s *Service) runTask(p *sim.Proc, exec *Execution, st *State, effIn any) (any, error) {
	payload, err := json.Marshal(effIn)
	if err != nil {
		return nil, fmt.Errorf("sfn: marshal task input: %w", err)
	}
	if s.params.PayloadLimit > 0 && len(payload) > s.params.PayloadLimit {
		return nil, &ExecutionError{
			ErrorName: "States.DataLimitExceeded",
			Cause:     fmt.Sprintf("payload %d bytes exceeds %d", len(payload), s.params.PayloadLimit),
		}
	}
	dStart := p.Now()
	p.Sleep(s.params.StepTaskDispatch.Sample(s.rng))
	s.Tracer.Emit(span.KindTransition, "sfn/dispatch/"+st.Resource, dStart, p.Now(), p.TraceCtx)
	if s.Chaos != nil {
		if flt, ok := s.Chaos.Next(p.TraceCtx, "sfn", st.Resource); ok {
			// The task fails at the service boundary (worker lost,
			// throttle, transient 5xx) after Delay of wasted wall time.
			// Surfacing it as States.TaskFailed drives Retry/Catch.
			p.Sleep(flt.Delay)
			exec.record(p, "TaskFailed", st.Resource)
			ferr := &chaos.FaultError{Kind: flt.Kind, Component: "sfn", Name: st.Resource}
			return nil, &ExecutionError{ErrorName: "States.TaskFailed", Cause: ferr.Error()}
		}
	}
	inv, err := s.lambda.Invoke(p, st.Resource, payload)
	if err != nil {
		return nil, err
	}
	exec.noteTaskStart(p.Now() - inv.ExecTime)
	if inv.Err != nil {
		exec.record(p, "TaskFailed", st.Resource)
		return nil, &ExecutionError{ErrorName: "States.TaskFailed", Cause: inv.Err.Error()}
	}
	exec.record(p, "TaskSucceeded", st.Resource)
	if len(inv.Output) == 0 {
		return nil, nil
	}
	var out any
	if err := json.Unmarshal(inv.Output, &out); err != nil {
		return nil, fmt.Errorf("sfn: unmarshal task output: %w", err)
	}
	return out, nil
}

// runMap fans the items at ItemsPath out through the Iterator machine,
// bounded by MaxConcurrency (0 = unbounded), and collects outputs in
// item order.
func (s *Service) runMap(p *sim.Proc, exec *Execution, st *State, effIn any) (any, error) {
	itemsVal, err := applyPath(effIn, st.ItemsPath)
	if err != nil {
		return nil, err
	}
	items, ok := itemsVal.([]any)
	if !ok {
		return nil, fmt.Errorf("sfn: Map ItemsPath %q is not an array", st.ItemsPath)
	}
	return s.fanOut(p, exec, len(items), st.MaxConcurrency, func(i int) (*StateMachine, any) {
		return st.Iterator, items[i]
	})
}

// runParallel executes every branch concurrently with the same input.
func (s *Service) runParallel(p *sim.Proc, exec *Execution, st *State, effIn any) (any, error) {
	return s.fanOut(p, exec, len(st.Branches), 0, func(i int) (*StateMachine, any) {
		return st.Branches[i], effIn
	})
}

// fanOut runs n sub-machines concurrently and gathers their outputs.
func (s *Service) fanOut(p *sim.Proc, exec *Execution, n, maxConc int, pick func(i int) (*StateMachine, any)) (any, error) {
	if n == 0 {
		return []any{}, nil
	}
	k := p.Kernel()
	var sem *sim.Resource
	if maxConc > 0 {
		sem = sim.NewResource(maxConc)
	}
	futures := make([]*sim.Future[any], n)
	branchCtx := p.TraceCtx
	for i := 0; i < n; i++ {
		i := i
		machine, input := pick(i)
		f := sim.NewFuture[any](k)
		futures[i] = f
		k.Spawn(fmt.Sprintf("sfn-branch-%d", i), func(bp *sim.Proc) {
			bp.TraceCtx = branchCtx
			if sem != nil {
				sem.Acquire(bp)
				defer sem.Release()
			}
			out, err := s.runMachine(bp, exec, machine, input)
			f.Complete(out, err)
		})
	}
	outs, err := sim.AwaitAll(p, futures)
	if err != nil {
		return nil, err
	}
	res := make([]any, n)
	copy(res, outs)
	return res, nil
}
