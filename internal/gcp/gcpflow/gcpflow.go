// Package gcpflow lowers provider-neutral flow definitions to GCP: the
// Mono class becomes a single Cloud Function and the Machine class
// becomes per-step Cloud Functions driven by a GCP Workflows program.
// Where awsflow compiles the Machine graph to an ASL document, the
// Workflows backend takes an executable definition, so the program is
// flow.Run over the graph with Workflows call, parallel and sleep
// steps as its backend.
package gcpflow

import (
	"encoding/json"
	"fmt"
	"time"

	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/gcp"
	"statebench/internal/sim"
)

// providerName is the registered GCP provider display name.
const providerName = "GCP"

// defaultMemoryMB is the provisioned tier used when a node does not pin
// one — the paper's Cloud Functions configurations default to 2048 MB.
const defaultMemoryMB = 2048

// Cloud Functions (1st gen) caps executions at 540 s; Workflows
// arguments are capped at 512 KB.
const (
	payloadCapBytes = 512 * 1024
	maxTaskSeconds  = 540
)

func init() {
	flow.RegisterLowerer(monoLowerer{})
	flow.RegisterLowerer(wflowLowerer{})
}

// memoryMB resolves a node's provisioned memory tier.
func memoryMB(n *flow.Node) int {
	if n.MemMB > 0 {
		return n.MemMB
	}
	return defaultMemoryMB
}

// registerTask installs one task node as a Cloud Function wrapping its
// bound stage.
func registerTask(gc *gcp.Cloud, st *flow.Stages, n *flow.Node) error {
	return flow.RegisterFunction(gc.Functions, st, n, memoryMB(n))
}

// --- Mono: single Cloud Function (GCP-Func) ---

type monoLowerer struct{}

func (monoLowerer) Impl() core.Impl   { return gcp.Func }
func (monoLowerer) Class() flow.Class { return flow.Mono }
func (monoLowerer) Variant() string   { return "" }
func (monoLowerer) Caps() flow.Caps   { return flow.Caps{MaxTaskSeconds: maxTaskSeconds} }

func (monoLowerer) Lower(env *core.Env, def *flow.Definition) (*core.Deployment, error) {
	gc := gcp.FromEnv(env)
	g := def.Graphs[flow.Mono]
	flow.ApplyPreloads(gc.GCS, g)
	st, err := def.Bind(flow.Binding{
		Env: env, Blob: gc.GCS, Provider: providerName, Class: flow.Mono,
	})
	if err != nil {
		return nil, err
	}
	n := g.Node(g.Start)
	if err := registerTask(gc, st, n); err != nil {
		return nil, err
	}
	return &core.Deployment{
		Runner:     flow.FunctionRunner(gc.Functions, n.Fn),
		FuncCount:  g.FuncCount,
		CodeSizeMB: g.DeployCodeSizeMB(providerName),
	}, nil
}

func (monoLowerer) Program(def *flow.Definition) (string, error) {
	g := def.Graphs[flow.Mono]
	n := g.Node(g.Start)
	return fmt.Sprintf("function %s memory=%dMB consumed=%dMB code=%.1fMB stage=%s\n",
		n.Fn, memoryMB(n), n.ConsumedMemMB, n.CodeSizeMB, n.Stage), nil
}

// --- Machine: GCP Workflows program (GCP-Wflow) ---

type wflowLowerer struct{}

func (wflowLowerer) Impl() core.Impl   { return gcp.Wflow }
func (wflowLowerer) Class() flow.Class { return flow.Machine }
func (wflowLowerer) Variant() string   { return "" }
func (wflowLowerer) Caps() flow.Caps {
	return flow.Caps{PayloadBytes: payloadCapBytes, MaxTaskSeconds: maxTaskSeconds}
}

func (wflowLowerer) Lower(env *core.Env, def *flow.Definition) (*core.Deployment, error) {
	gc := gcp.FromEnv(env)
	g := def.Graphs[flow.Machine]
	flow.ApplyPreloads(gc.GCS, g)
	st, err := def.Bind(flow.Binding{
		Env: env, Blob: gc.GCS, Provider: providerName, Class: flow.Machine,
	})
	if err != nil {
		return nil, err
	}
	for _, n := range flow.Nodes(g) {
		if n.Kind == flow.KindSub {
			return nil, fmt.Errorf("gcpflow: node %q: kind %s has no Workflows lowering", n.Name, n.Kind)
		}
		if n.Kind == flow.KindTask && !n.Pure {
			if err := registerTask(gc, st, n); err != nil {
				return nil, err
			}
		}
	}
	name := def.MachineNameFor(g, providerName)
	if err := gc.Workflows.Create(name, wfDefinition(def, g, st)); err != nil {
		return nil, err
	}
	return &core.Deployment{
		Runner:     &gwfRunner{gc: gc, wf: name, entry: def.EntryMap},
		FuncCount:  g.FuncCount,
		CodeSizeMB: g.DeployCodeSizeMB(providerName),
	}, nil
}

// Program renders the deterministic step plan of the Workflows program.
func (wflowLowerer) Program(def *flow.Definition) (string, error) {
	g := def.Graphs[flow.Machine]
	out := fmt.Sprintf("workflow %s\n", def.MachineNameFor(g, providerName))
	for _, n := range g.Nodes {
		out += programStep(n, "  ")
	}
	return out, nil
}

func programStep(n *flow.Node, indent string) string {
	switch n.Kind {
	case flow.KindTask:
		return fmt.Sprintf("%sstep %s: call %s memory=%dMB\n", indent, n.Name, n.Fn, memoryMB(n))
	case flow.KindMap:
		return fmt.Sprintf("%sstep %s: parallel map\n", indent, n.Name) + programStep(n.Iter, indent+"  ")
	case flow.KindParallel:
		out := fmt.Sprintf("%sstep %s: parallel\n", indent, n.Name)
		for _, b := range n.Branches {
			out += programStep(b, indent+"  ")
		}
		return out
	case flow.KindChoice:
		return fmt.Sprintf("%sstep %s: switch (%d cases)\n", indent, n.Name, len(n.Cases))
	case flow.KindWait:
		return fmt.Sprintf("%sstep %s: sleep %gs\n", indent, n.Name, n.WaitSeconds)
	}
	return fmt.Sprintf("%sstep %s: %s\n", indent, n.Name, n.Kind)
}

// wfDefinition builds the Workflows program: flow.Run over the machine
// graph from the run's entry payload, its last payload converted to
// the execution output.
func wfDefinition(def *flow.Definition, g *flow.Graph, st *flow.Stages) gcp.Definition {
	return func(ctx *gcp.Ctx, input map[string]any) (map[string]any, error) {
		run, _ := input["run"].(float64)
		last, err := flow.Run(g, st, def.Entry(flow.Machine, int64(run)), wflowBackend{ctx})
		if err != nil {
			return nil, err
		}
		if def.Finish != nil {
			return def.Finish(last)
		}
		var res map[string]any
		if err := json.Unmarshal(last, &res); err != nil {
			return nil, err
		}
		return res, nil
	}
}

// wflowBackend is flow.Run's backend inside a Workflows program: a
// call step per task, a parallel step per fan-out and the process's
// own sleep for a wait.
type wflowBackend struct{ ctx *gcp.Ctx }

func (b wflowBackend) Call(n *flow.Node, input []byte) ([]byte, error) {
	return b.ctx.Call(n.Fn, input)
}

func (b wflowBackend) Fan(nodes []*flow.Node, inputs [][]byte) ([][]byte, error) {
	outs := make([][]byte, len(nodes))
	branches := make([]func(bc *gcp.Ctx) error, len(nodes))
	for i, n := range nodes {
		branches[i] = func(bc *gcp.Ctx) (err error) {
			outs[i], err = bc.Call(n.Fn, inputs[i])
			return err
		}
	}
	return outs, b.ctx.Parallel(branches...)
}

func (b wflowBackend) Sleep(d time.Duration) error {
	b.ctx.Proc().Sleep(d)
	return nil
}

// gwfRunner executes a Workflows program per run.
type gwfRunner struct {
	gc      *gcp.Cloud
	wf      string
	entry   func(run int64) map[string]any
	nextRun int64
}

// Invoke implements core.Runner.
func (r *gwfRunner) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	r.nextRun++
	exec, err := r.gc.Workflows.Execute(p, r.wf, r.entry(r.nextRun))
	if err != nil {
		return core.RunStats{}, err
	}
	var out []byte
	if exec.Err == nil {
		out, _ = json.Marshal(exec.Output)
	}
	cold := exec.FirstCallDelay
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
