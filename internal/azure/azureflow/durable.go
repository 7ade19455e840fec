package azureflow

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/cloud/blob"
	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/sim"
)

// DurableTarget selects the task hub a durable lowering deploys onto.
// The classic Azure hub and the Netherite hub expose identical
// registration surfaces, so the same lowering serves both — only the
// target differs.
type DurableTarget struct {
	Hub    *durable.Hub
	Client *durable.Client
	Blob   *blob.Store
}

// ClassicTarget resolves the storage-backed task hub the paper's
// Az-Dorch / Az-Dent styles run on.
func ClassicTarget(env *core.Env) DurableTarget {
	return DurableTarget{Hub: env.Azure().Hub, Client: env.Azure().Client, Blob: env.Azure().Blob}
}

// durableLowerer compiles a Durable-class graph into orchestrator,
// activity, and entity registrations on a task hub; each orchestrator
// runs its graph with flow.Run.
type durableLowerer struct {
	impl     core.Impl
	class    flow.Class
	variant  string
	provider string
	target   func(env *core.Env) DurableTarget
}

// NewDurableLowerer builds a durable lowering for one style. nethflow
// reuses it with the Netherite hub target and variant "n".
func NewDurableLowerer(impl core.Impl, class flow.Class, variant, provider string, target func(env *core.Env) DurableTarget) flow.Lowerer {
	return &durableLowerer{impl: impl, class: class, variant: variant, provider: provider, target: target}
}

func (l *durableLowerer) Impl() core.Impl   { return l.impl }
func (l *durableLowerer) Class() flow.Class { return l.class }
func (l *durableLowerer) Variant() string   { return l.variant }
func (l *durableLowerer) Caps() flow.Caps {
	return flow.Caps{PayloadBytes: payloadCapBytes, MaxTaskSeconds: maxTaskSeconds}
}

func (l *durableLowerer) Lower(env *core.Env, def *flow.Definition) (*core.Deployment, error) {
	g := def.Graphs[l.class]
	tgt := l.target(env)
	flow.ApplyPreloads(tgt.Blob, g)
	st, err := def.Bind(flow.Binding{
		Env: env, Blob: tgt.Blob, Provider: l.provider, Class: l.class, Variant: l.variant,
	})
	if err != nil {
		return nil, err
	}
	rs := &flow.RunState{}
	if def.FinishScratchKey != "" {
		env.Scratch[def.FinishScratchKey] = &rs.Finishes
	}
	for _, decl := range g.Entities {
		if err := l.registerEntity(tgt, st, def, decl); err != nil {
			return nil, err
		}
	}
	// Activities (each function once) and sub-orchestrators in
	// flow.Nodes order; entity calls and pure transforms install
	// nothing.
	seen := make(map[string]bool)
	for _, n := range flow.Nodes(g) {
		switch {
		case n.Kind == flow.KindSub:
			err = tgt.Hub.RegisterOrchestrator(n.SubGraph.MachineName, n.SubGraph.OrchConsumedMemMB, orchestrator(n.SubGraph, st))
		case isActivity(n) && !seen[n.Fn]:
			seen[n.Fn] = true
			var stage flow.StageFn
			if stage, err = st.Task(n.Stage); err == nil {
				err = tgt.Hub.RegisterActivity(n.Fn, n.ConsumedMemMB, func(ctx *functions.Context, input []byte) ([]byte, error) {
					return stage(&actCtx{Context: ctx, rs: rs}, input)
				})
			}
		}
		if err != nil {
			return nil, err
		}
	}
	orch := def.MachineNameFor(g, l.provider)
	if err := tgt.Hub.RegisterOrchestrator(orch, g.OrchConsumedMemMB, orchestrator(g, st)); err != nil {
		return nil, err
	}
	class := l.class
	return &core.Deployment{
		Runner: &durableRunner{
			client: tgt.Client,
			orch:   orch,
			entry:  func(run int64) []byte { return def.Entry(class, run) },
			rs:     rs,
		},
		FuncCount:  g.FuncCount,
		CodeSizeMB: g.DeployCodeSizeMB(l.provider),
	}, nil
}

// registerEntity installs one declared durable entity: declared ops
// dispatch to bound stages (the EntityContext is the stage's StateAct),
// plus the optional built-in state-read op, plus optional preloaded
// durable state on hubs that expose an instances table.
func (l *durableLowerer) registerEntity(tgt DurableTarget, st *flow.Stages, def *flow.Definition, decl flow.EntityDecl) error {
	stages := make(map[string]flow.StageFn, len(decl.Ops))
	for op, stage := range decl.Ops {
		fn, err := st.Task(stage)
		if err != nil {
			return err
		}
		stages[op] = fn
	}
	err := tgt.Hub.RegisterEntity(decl.Name, decl.ConsumedMemMB, func(ctx *durable.EntityContext, op string, input []byte) ([]byte, error) {
		if fn, ok := stages[op]; ok {
			return fn(ctx, input)
		}
		if op == decl.GetOp && decl.GetOp != "" {
			if decl.GetErr != "" && !ctx.HasState() {
				return nil, fmt.Errorf("%s", decl.GetErr)
			}
			return ctx.State(), nil
		}
		return nil, fmt.Errorf("%s: %s: unknown op %q", def.ErrPrefix, decl.Name, op)
	})
	if err != nil {
		return err
	}
	if decl.PreloadKey != "" {
		if tbl := tgt.Hub.InstancesTable(); tbl != nil {
			tbl.Preload("@"+decl.Name+"@"+decl.PreloadKey, "state", decl.PreloadState)
		}
	}
	return nil
}

// isActivity reports whether a node runs as a durable activity: a
// platform task that is neither a pure transform nor an entity call.
func isActivity(n *flow.Node) bool {
	return n.Kind == flow.KindTask && !n.Pure && n.Entity == ""
}

// Program renders the deterministic registration plan: entities in
// declaration order (ops sorted), then activities and
// sub-orchestrators in flow.Nodes order, then the root orchestrator.
func (l *durableLowerer) Program(def *flow.Definition) (string, error) {
	g := def.Graphs[l.class]
	var sb strings.Builder
	for _, decl := range g.Entities {
		ops := make([]string, 0, len(decl.Ops))
		for op := range decl.Ops {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		if decl.GetOp != "" {
			ops = append(ops, decl.GetOp)
		}
		fmt.Fprintf(&sb, "entity %s consumed=%dMB ops=[%s]\n", decl.Name, decl.ConsumedMemMB, strings.Join(ops, " "))
	}
	for _, n := range flow.Nodes(g) {
		switch {
		case n.Kind == flow.KindSub:
			fmt.Fprintf(&sb, "orchestrator %s consumed=%dMB nodes=%d\n",
				n.SubGraph.MachineName, n.SubGraph.OrchConsumedMemMB, len(n.SubGraph.Nodes))
		case isActivity(n):
			fmt.Fprintf(&sb, "activity %s consumed=%dMB stage=%s\n", n.Fn, n.ConsumedMemMB, n.Stage)
		}
	}
	fmt.Fprintf(&sb, "orchestrator %s consumed=%dMB nodes=%d\n",
		def.MachineNameFor(g, l.provider), g.OrchConsumedMemMB, len(g.Nodes))
	return sb.String(), nil
}

// actCtx wraps an activity's function context with the deployment's
// RunState so stages can record per-branch finish times.
type actCtx struct {
	*functions.Context
	rs *flow.RunState
}

// FlowRunState exposes the RunState to flow.RunStateOf.
func (c *actCtx) FlowRunState() *flow.RunState { return c.rs }

// orchestrator runs a durable graph with flow.Run, replayed from the
// start on every episode like any orchestrator function.
func orchestrator(g *flow.Graph, st *flow.Stages) durable.OrchestratorFn {
	return func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
		return flow.Run(g, st, input, orchBackend{ctx})
	}
}

// orchBackend is flow.Run's backend inside an orchestrator: calls are
// activities, entity operations or sub-orchestrations, a fan-out is
// WaitAll over them, and a sleep is a durable timer.
type orchBackend struct{ ctx *durable.OrchestrationContext }

// start schedules one task-shaped node without awaiting it.
func (b orchBackend) start(n *flow.Node, input []byte) *durable.Task {
	switch {
	case n.Kind == flow.KindSub:
		return b.ctx.CallSubOrchestrator(n.SubGraph.MachineName, input)
	case n.Entity != "":
		return b.ctx.CallEntity(durable.EntityID{Name: n.Entity, Key: n.EntityKey}, n.Op, input)
	}
	return b.ctx.CallActivity(n.Fn, input)
}

func (b orchBackend) Call(n *flow.Node, input []byte) ([]byte, error) {
	return b.start(n, input).Await()
}

func (b orchBackend) Fan(nodes []*flow.Node, inputs [][]byte) ([][]byte, error) {
	tasks := make([]*durable.Task, len(nodes))
	for i, n := range nodes {
		tasks[i] = b.start(n, inputs[i])
	}
	return b.ctx.WaitAll(tasks...)
}

func (b orchBackend) Sleep(d time.Duration) error {
	_, err := b.ctx.CreateTimer(d).Await()
	return err
}

// durableRunner starts one orchestration per run and reads the paper's
// metrics off the client handle.
type durableRunner struct {
	client  *durable.Client
	orch    string
	entry   func(run int64) []byte
	rs      *flow.RunState
	nextRun int64
}

// Invoke implements core.Runner.
func (r *durableRunner) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	r.nextRun++
	r.rs.CurStart = p.Now()
	out, hd, err := r.client.Run(p, r.orch, r.entry(r.nextRun))
	stats := core.RunStats{Output: out, Err: err}
	if hd != nil {
		stats.E2E = hd.E2E()
		stats.ColdStart = hd.ColdStart()
	}
	if hd == nil && err != nil {
		return stats, err
	}
	return stats, nil
}
