// Package awsflow lowers provider-neutral flow definitions to AWS: the
// Mono class becomes a single Lambda function, the Machine class
// becomes per-state Lambdas orchestrated by a Step Functions state
// machine compiled from the graph (Amazon States Language). Both
// lowerers self-register with the flow registry from init, the same
// discovery pattern the core provider registry uses.
package awsflow

import (
	"encoding/json"
	"fmt"

	"statebench/internal/aws/sfn"
	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/sim"
)

// providerName is the registered AWS provider display name.
const providerName = "AWS"

// defaultMemoryMB is the provisioned tier used when a node does not
// pin one — the paper's Lambda configurations default to 1536 MB.
const defaultMemoryMB = 1536

func init() {
	flow.RegisterLowerer(monoLowerer{})
	flow.RegisterLowerer(machineLowerer{})
}

// memoryMB resolves a node's provisioned memory tier.
func memoryMB(n *flow.Node) int {
	if n.MemMB > 0 {
		return n.MemMB
	}
	return defaultMemoryMB
}

// bind resolves a definition's stage closures for one AWS lowering.
func bind(env *core.Env, def *flow.Definition, class flow.Class) (*flow.Stages, error) {
	return def.Bind(flow.Binding{
		Env:      env,
		Blob:     env.AWS().S3,
		Provider: providerName,
		Class:    class,
	})
}

// registerTask installs one task node as a Lambda wrapping its bound
// stage.
func registerTask(env *core.Env, st *flow.Stages, n *flow.Node) error {
	return flow.RegisterFunction(env.AWS().Lambda, st, n, memoryMB(n))
}

// --- Mono: single-Lambda monolith (AWS-Lambda) ---

type monoLowerer struct{}

func (monoLowerer) Impl() core.Impl   { return core.AWSLambda }
func (monoLowerer) Class() flow.Class { return flow.Mono }
func (monoLowerer) Variant() string   { return "" }

// Caps: a monolith passes state through blobs, so no payload cap
// applies; Lambda's execution ceiling is 900 s.
func (monoLowerer) Caps() flow.Caps { return flow.Caps{MaxTaskSeconds: 900} }

func (monoLowerer) Lower(env *core.Env, def *flow.Definition) (*core.Deployment, error) {
	g := def.Graphs[flow.Mono]
	flow.ApplyPreloads(env.AWS().S3, g)
	st, err := bind(env, def, flow.Mono)
	if err != nil {
		return nil, err
	}
	n := g.Node(g.Start)
	if err := registerTask(env, st, n); err != nil {
		return nil, err
	}
	return &core.Deployment{
		Runner:     flow.FunctionRunner(env.AWS().Lambda, n.Fn),
		FuncCount:  g.FuncCount,
		CodeSizeMB: g.DeployCodeSizeMB(providerName),
	}, nil
}

func (monoLowerer) Program(def *flow.Definition) (string, error) {
	g := def.Graphs[flow.Mono]
	n := g.Node(g.Start)
	return fmt.Sprintf("lambda %s memory=%dMB consumed=%dMB code=%.1fMB stage=%s\n",
		n.Fn, memoryMB(n), n.ConsumedMemMB, n.CodeSizeMB, n.Stage), nil
}

// --- Machine: Step Functions state machine (AWS-Step) ---

type machineLowerer struct{}

func (machineLowerer) Impl() core.Impl   { return core.AWSStep }
func (machineLowerer) Class() flow.Class { return flow.Machine }
func (machineLowerer) Variant() string   { return "" }

// Caps: SFN's 256 KB inter-state payload limit and Lambda's 900 s
// execution ceiling — the two AWS numbers the paper measures against.
func (machineLowerer) Caps() flow.Caps {
	return flow.Caps{PayloadBytes: 256 * 1024, MaxTaskSeconds: 900}
}

func (machineLowerer) Lower(env *core.Env, def *flow.Definition) (*core.Deployment, error) {
	g := def.Graphs[flow.Machine]
	flow.ApplyPreloads(env.AWS().S3, g)
	st, err := bind(env, def, flow.Machine)
	if err != nil {
		return nil, err
	}
	for _, n := range flow.Nodes(g) {
		if n.Kind == flow.KindTask {
			if err := registerTask(env, st, n); err != nil {
				return nil, err
			}
		}
	}
	machine, err := buildASL(g)
	if err != nil {
		return nil, err
	}
	name := def.MachineNameFor(g, providerName)
	if err := env.AWS().SFN.CreateStateMachine(name, machine); err != nil {
		return nil, err
	}
	return &core.Deployment{
		Runner:     &stepRunner{env: env, machine: name, entry: def.EntryMap},
		FuncCount:  g.FuncCount,
		CodeSizeMB: g.DeployCodeSizeMB(providerName),
	}, nil
}

// Program renders the compiled state machine as ASL JSON.
func (machineLowerer) Program(def *flow.Definition) (string, error) {
	machine, err := buildASL(def.Graphs[flow.Machine])
	if err != nil {
		return "", err
	}
	data, err := machine.Definition()
	if err != nil {
		return "", err
	}
	return string(data) + "\n", nil
}

// buildASL compiles a machine graph to an ASL state machine.
func buildASL(g *flow.Graph) (*sfn.StateMachine, error) {
	var retry []sfn.RetryPolicy
	if g.RetryAttempts > 0 {
		retry = []sfn.RetryPolicy{{ErrorEquals: []string{"States.ALL"}, MaxAttempts: g.RetryAttempts}}
	}
	states := make(map[string]*sfn.State, len(g.Nodes))
	for _, n := range g.Nodes {
		st, err := buildState(n, retry)
		if err != nil {
			return nil, err
		}
		states[n.Name] = st
	}
	return &sfn.StateMachine{
		Comment: g.Comment,
		StartAt: g.Start,
		States:  states,
	}, nil
}

// taskState builds the Task state for a task-shaped node (top-level,
// iterator, or branch). Terminal iterator/branch states set End.
func taskState(n *flow.Node, retry []sfn.RetryPolicy, end bool) *sfn.State {
	st := &sfn.State{Type: sfn.TypeTask, Resource: n.Fn, Retry: retry}
	if end {
		st.End = true
	}
	return st
}

func buildState(n *flow.Node, retry []sfn.RetryPolicy) (*sfn.State, error) {
	var st *sfn.State
	switch n.Kind {
	case flow.KindTask:
		st = taskState(n, retry, n.Next == "")
		if n.Next != "" {
			st.Next = n.Next
		}
		return st, nil
	case flow.KindMap:
		iterName := n.IterName
		if iterName == "" {
			iterName = n.Iter.Name
		}
		st = &sfn.State{
			Type:           sfn.TypeMap,
			ItemsPath:      "$." + n.ItemsField,
			ResultPath:     "$." + n.ResultField,
			MaxConcurrency: n.MaxConcurrency,
			Iterator: &sfn.StateMachine{
				StartAt: iterName,
				States:  map[string]*sfn.State{iterName: taskState(n.Iter, retry, true)},
			},
		}
	case flow.KindParallel:
		branches := make([]*sfn.StateMachine, len(n.Branches))
		for i, b := range n.Branches {
			branches[i] = &sfn.StateMachine{
				StartAt: b.Name,
				States:  map[string]*sfn.State{b.Name: taskState(b, retry, true)},
			}
		}
		st = &sfn.State{Type: sfn.TypeParallel, Branches: branches}
	case flow.KindChoice:
		// Each case tests its field's presence first, so a case whose
		// field is absent falls through as in flow.EvalChoice instead
		// of failing the execution.
		present := true
		rules := make([]sfn.ChoiceRule, len(n.Cases))
		for i, c := range n.Cases {
			v := "$." + flow.ChoiceField(c.Var)
			rules[i] = sfn.ChoiceRule{
				And: []sfn.ChoiceRule{
					{Variable: v, IsPresent: &present},
					{
						Variable:                 v,
						NumericLessThan:          c.NumLT,
						NumericGreaterThanEquals: c.NumGTE,
						StringEquals:             c.StrEq,
					},
				},
				Next: c.To,
			}
		}
		return &sfn.State{Type: sfn.TypeChoice, Choices: rules, Default: n.Default}, nil
	case flow.KindWait:
		st = &sfn.State{Type: sfn.TypeWait, Seconds: n.WaitSeconds}
	default:
		return nil, fmt.Errorf("awsflow: node %q: kind %s has no ASL lowering", n.Name, n.Kind)
	}
	if n.Next != "" {
		st.Next = n.Next
	} else {
		st.End = true
	}
	return st, nil
}

// stepRunner executes a Step Functions state machine per run.
type stepRunner struct {
	env     *core.Env
	machine string
	entry   func(run int64) map[string]any
	nextRun int64
}

// Invoke implements core.Runner.
func (r *stepRunner) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	r.nextRun++
	exec, err := r.env.AWS().SFN.StartExecution(p, r.machine, r.entry(r.nextRun))
	if err != nil {
		return core.RunStats{}, err
	}
	var out []byte
	if exec.Err == nil {
		out, _ = json.Marshal(exec.Output)
	}
	cold := exec.FirstTaskDelay
	if cold < 0 {
		cold = 0
	}
	return core.RunStats{
		E2E:       exec.Duration(),
		ColdStart: cold,
		Output:    out,
		Err:       exec.Err,
	}, nil
}
