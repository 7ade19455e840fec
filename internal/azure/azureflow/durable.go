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
	return DurableTarget{Hub: env.Azure.Hub, Client: env.Azure.Client, Blob: env.Azure.Blob}
}

// durableLowerer compiles a Durable-class graph into orchestrator,
// activity, and entity registrations on a task hub, with a generic
// orchestrator interpreting the graph deterministically.
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
	seen := make(map[string]bool)
	for _, n := range g.Nodes {
		if err := l.registerWork(tgt, st, def, n, rs, seen); err != nil {
			return nil, err
		}
	}
	orch := def.MachineNameFor(g, l.provider)
	if err := tgt.Hub.RegisterOrchestrator(orch, g.OrchConsumedMemMB, func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
		return runGraph(ctx, g, st, input)
	}); err != nil {
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

// registerWork walks a node and installs every activity and
// sub-orchestrator it needs, in node order (entity calls and pure
// transforms register nothing). seen dedupes activities shared between
// nodes.
func (l *durableLowerer) registerWork(tgt DurableTarget, st *flow.Stages, def *flow.Definition, n *flow.Node, rs *flow.RunState, seen map[string]bool) error {
	switch n.Kind {
	case flow.KindTask:
		if n.Pure || n.Entity != "" || seen[n.Fn] {
			return nil
		}
		seen[n.Fn] = true
		stage, err := st.Task(n.Stage)
		if err != nil {
			return err
		}
		return tgt.Hub.RegisterActivity(n.Fn, n.ConsumedMemMB, func(ctx *functions.Context, input []byte) ([]byte, error) {
			return stage(&actCtx{Context: ctx, rs: rs}, input)
		})
	case flow.KindMap:
		return l.registerWork(tgt, st, def, n.Iter, rs, seen)
	case flow.KindParallel:
		for _, b := range n.Branches {
			if err := l.registerWork(tgt, st, def, b, rs, seen); err != nil {
				return err
			}
		}
		return nil
	case flow.KindSub:
		sub := n.SubGraph
		for _, sn := range sub.Nodes {
			if err := l.registerWork(tgt, st, def, sn, rs, seen); err != nil {
				return err
			}
		}
		return tgt.Hub.RegisterOrchestrator(sub.MachineName, sub.OrchConsumedMemMB, func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
			return runGraph(ctx, sub, st, input)
		})
	}
	return nil
}

// Program renders the deterministic registration plan: entities in
// declaration order (ops sorted), then activities and
// sub-orchestrators in node order, then the root orchestrator.
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
	for _, n := range g.Nodes {
		programWork(&sb, n)
	}
	fmt.Fprintf(&sb, "orchestrator %s consumed=%dMB nodes=%d\n",
		def.MachineNameFor(g, l.provider), g.OrchConsumedMemMB, len(g.Nodes))
	return sb.String(), nil
}

func programWork(sb *strings.Builder, n *flow.Node) {
	switch n.Kind {
	case flow.KindTask:
		if n.Pure || n.Entity != "" {
			return
		}
		fmt.Fprintf(sb, "activity %s consumed=%dMB stage=%s\n", n.Fn, n.ConsumedMemMB, n.Stage)
	case flow.KindMap:
		programWork(sb, n.Iter)
	case flow.KindParallel:
		for _, b := range n.Branches {
			programWork(sb, b)
		}
	case flow.KindSub:
		for _, sn := range n.SubGraph.Nodes {
			programWork(sb, sn)
		}
		fmt.Fprintf(sb, "orchestrator %s consumed=%dMB nodes=%d\n",
			n.SubGraph.MachineName, n.SubGraph.OrchConsumedMemMB, len(n.SubGraph.Nodes))
	}
}

// actCtx wraps an activity's function context with the deployment's
// RunState so stages can record per-branch finish times.
type actCtx struct {
	*functions.Context
	rs *flow.RunState
}

// FlowRunState exposes the RunState to flow.RunStateOf.
func (c *actCtx) FlowRunState() *flow.RunState { return c.rs }

// issueTask starts one task-shaped node (activity, entity op, or
// sub-orchestrator) without awaiting it.
func issueTask(ctx *durable.OrchestrationContext, n *flow.Node, input []byte) *durable.Task {
	switch {
	case n.Kind == flow.KindSub:
		return ctx.CallSubOrchestrator(n.SubGraph.MachineName, input)
	case n.Entity != "":
		return ctx.CallEntity(durable.EntityID{Name: n.Entity, Key: n.EntityKey}, n.Op, input)
	}
	return ctx.CallActivity(n.Fn, input)
}

// runGraph interprets a durable graph inside an orchestrator: the same
// deterministic walk every durable workload hand-coded before the IR.
func runGraph(ctx *durable.OrchestrationContext, g *flow.Graph, st *flow.Stages, entry []byte) ([]byte, error) {
	cur := entry
	for name := g.Start; name != ""; {
		n := g.Node(name)
		in := flow.InputFor(n, cur, entry)
		switch n.Kind {
		case flow.KindTask, flow.KindSub:
			if n.Pure {
				stage, err := st.Task(n.Stage)
				if err != nil {
					return nil, err
				}
				out, err := stage(nil, in)
				if err != nil {
					return nil, err
				}
				cur = out
				break
			}
			out, err := issueTask(ctx, n, in).Await()
			if err != nil {
				return nil, err
			}
			cur = out
		case flow.KindMap:
			items, err := flow.Items(n, st, in)
			if err != nil {
				return nil, err
			}
			if len(items) > flow.MaxFanOut {
				return nil, fmt.Errorf("flow: %s: fan-out %d exceeds limit %d", n.Name, len(items), flow.MaxFanOut)
			}
			outs := make([][]byte, len(items))
			if n.Serial {
				for i, it := range items {
					out, err := issueTask(ctx, n.Iter, it).Await()
					if err != nil {
						return nil, err
					}
					outs[i] = out
				}
			} else {
				tasks := make([]*durable.Task, len(items))
				for i, it := range items {
					tasks[i] = issueTask(ctx, n.Iter, it)
				}
				outs, err = ctx.WaitAll(tasks...)
				if err != nil {
					return nil, err
				}
			}
			cur, err = flow.JoinOutputs(n, outs, cur)
			if err != nil {
				return nil, err
			}
		case flow.KindParallel:
			tasks := make([]*durable.Task, len(n.Branches))
			for i, b := range n.Branches {
				tasks[i] = issueTask(ctx, b, flow.InputFor(b, cur, entry))
			}
			outs, err := ctx.WaitAll(tasks...)
			if err != nil {
				return nil, err
			}
			cur, err = flow.JoinOutputs(n, outs, cur)
			if err != nil {
				return nil, err
			}
		case flow.KindChoice:
			next, err := flow.EvalChoice(n, in)
			if err != nil {
				return nil, err
			}
			name = next
			continue
		case flow.KindWait:
			if _, err := ctx.CreateTimer(time.Duration(n.WaitSeconds * float64(time.Second))).Await(); err != nil {
				return nil, err
			}
		}
		name = n.Next
	}
	return cur, nil
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
