// Package azureflow lowers provider-neutral flow definitions to Azure:
// the Mono class becomes a single HTTP-triggered function, the Queue
// class becomes a hand-rolled storage-queue chain (HTTP-triggered head,
// queue-triggered tail), and the Durable classes become orchestrator /
// entity registrations on a task hub. The durable lowering is generic
// over the hub target, so the Netherite variant (nethflow) reuses it
// against a different store.
package azureflow

import (
	"fmt"
	"strings"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/cloud/queue"
	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/sim"
)

// providerName is the registered Azure provider display name.
const providerName = "Azure"

// azureCaps: Azure storage queues and Durable messages share the 64 KB
// payload cap the paper measures; the premium-plan execution ceiling
// is 1800 s.
const (
	payloadCapBytes = 64 * 1024
	maxTaskSeconds  = 1800
)

func init() {
	flow.RegisterLowerer(monoLowerer{})
	flow.RegisterLowerer(queueLowerer{})
	flow.RegisterLowerer(NewDurableLowerer(core.AzDorch, flow.DurableOrch, "", providerName, ClassicTarget))
	flow.RegisterLowerer(NewDurableLowerer(core.AzDent, flow.DurableEnt, "", providerName, ClassicTarget))
}

// --- Mono: single HTTP-triggered function (Az-Func) ---

type monoLowerer struct{}

func (monoLowerer) Impl() core.Impl   { return core.AzFunc }
func (monoLowerer) Class() flow.Class { return flow.Mono }
func (monoLowerer) Variant() string   { return "" }
func (monoLowerer) Caps() flow.Caps   { return flow.Caps{MaxTaskSeconds: maxTaskSeconds} }

func (monoLowerer) Lower(env *core.Env, def *flow.Definition) (*core.Deployment, error) {
	g := def.Graphs[flow.Mono]
	flow.ApplyPreloads(env.Azure.Blob, g)
	st, err := def.Bind(flow.Binding{
		Env: env, Blob: env.Azure.Blob, Provider: providerName, Class: flow.Mono,
	})
	if err != nil {
		return nil, err
	}
	n := g.Node(g.Start)
	stage, err := st.Task(n.Stage)
	if err != nil {
		return nil, err
	}
	if _, err := env.Azure.Host.Register(functions.Config{
		Name:          n.Fn,
		ConsumedMemMB: n.ConsumedMemMB,
		Handler: func(ctx *functions.Context, input []byte) ([]byte, error) {
			return stage(ctx, input)
		},
	}); err != nil {
		return nil, err
	}
	return &core.Deployment{
		Runner:     &azFuncRunner{env: env, fn: n.Fn},
		FuncCount:  g.FuncCount,
		CodeSizeMB: g.DeployCodeSizeMB(providerName),
	}, nil
}

func (monoLowerer) Program(def *flow.Definition) (string, error) {
	g := def.Graphs[flow.Mono]
	n := g.Node(g.Start)
	return fmt.Sprintf("function %s consumed=%dMB stage=%s (http)\n", n.Fn, n.ConsumedMemMB, n.Stage), nil
}

// azFuncRunner drives one HTTP-triggered Azure function.
type azFuncRunner struct {
	env *core.Env
	fn  string
}

// Invoke implements core.Runner.
func (r *azFuncRunner) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	start := p.Now()
	res, err := r.env.Azure.Host.InvokeHTTP(p, r.fn, nil)
	if err != nil {
		return core.RunStats{}, err
	}
	cold := time.Duration(0)
	if res.Cold {
		cold = res.SchedDelay
	}
	return core.RunStats{
		E2E:       p.Now() - start,
		ColdStart: cold,
		ExecTime:  res.ExecTime,
		Output:    res.Output,
		Err:       res.Err,
	}, nil
}

// --- Queue: storage-queue chain (Az-Queue) ---

type queueLowerer struct{}

func (queueLowerer) Impl() core.Impl   { return core.AzQueue }
func (queueLowerer) Class() flow.Class { return flow.Queue }
func (queueLowerer) Variant() string   { return "" }
func (queueLowerer) Caps() flow.Caps {
	return flow.Caps{PayloadBytes: payloadCapBytes, MaxTaskSeconds: maxTaskSeconds}
}

// chainOf linearizes a queue graph: the Start node followed by its
// Next successors. Queue graphs are plain chains; anything else is a
// lowering error.
func chainOf(g *flow.Graph) ([]*flow.Node, error) {
	var chain []*flow.Node
	for name := g.Start; name != ""; {
		n := g.Node(name)
		if n.Kind != flow.KindTask {
			return nil, fmt.Errorf("azureflow: queue chain node %q: kind %s not lowerable to a queue trigger", n.Name, n.Kind)
		}
		chain = append(chain, n)
		name = n.Next
	}
	return chain, nil
}

func (queueLowerer) Lower(env *core.Env, def *flow.Definition) (*core.Deployment, error) {
	g := def.Graphs[flow.Queue]
	flow.ApplyPreloads(env.Azure.Blob, g)
	st, err := def.Bind(flow.Binding{
		Env: env, Blob: env.Azure.Blob, Provider: providerName, Class: flow.Queue,
	})
	if err != nil {
		return nil, err
	}
	chain, err := chainOf(g)
	if err != nil {
		return nil, err
	}
	d := &queueDeploy{
		env:    env,
		def:    def,
		headFn: chain[0].Fn,
		runs:   make(map[int64]*queueRun),
	}
	// Create every queue before any registration (the order the legacy
	// deployments used).
	queues := make([]*queue.Queue, len(chain))
	for i, n := range chain {
		if n.QueueName != "" {
			queues[i] = env.Azure.NewQueue(n.QueueName)
		}
	}
	host := env.Azure.Host
	for i, n := range chain {
		stage, err := st.Task(n.Stage)
		if err != nil {
			return nil, err
		}
		var next *queue.Queue
		if i+1 < len(chain) {
			next = queues[i+1]
		}
		h := d.wrap(stage, next, i == 0, i == 1)
		if _, err := host.Register(functions.Config{Name: n.Fn, ConsumedMemMB: n.ConsumedMemMB, Handler: h}); err != nil {
			return nil, err
		}
		if queues[i] != nil {
			if err := host.QueueTrigger(queues[i], n.Fn); err != nil {
				return nil, err
			}
		}
	}
	return &core.Deployment{
		Runner:     d,
		FuncCount:  g.FuncCount,
		CodeSizeMB: g.DeployCodeSizeMB(providerName),
	}, nil
}

func (queueLowerer) Program(def *flow.Definition) (string, error) {
	g := def.Graphs[flow.Queue]
	chain, err := chainOf(g)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for i, n := range chain {
		trigger := "http"
		if n.QueueName != "" {
			trigger = "queue " + n.QueueName
		}
		fmt.Fprintf(&sb, "function %s consumed=%dMB stage=%s (%s)", n.Fn, n.ConsumedMemMB, n.Stage, trigger)
		if i+1 < len(chain) {
			fmt.Fprintf(&sb, " -> %s", chain[i+1].QueueName)
		}
		sb.WriteByte('\n')
	}
	return sb.String(), nil
}

// queueRun tracks one in-flight chained run.
type queueRun struct {
	start      sim.Time
	enqueuedAt sim.Time // when the head handed off to the first queue
	firstExec  sim.Time // when the first queue-triggered stage began
	haveFirst  bool
	done       *sim.Future[[]byte]
}

// queueDeploy is the queue-chained deployment state.
type queueDeploy struct {
	env    *core.Env
	def    *flow.Definition
	headFn string

	nextRun int64
	runs    map[int64]*queueRun
}

func (d *queueDeploy) track(run int64) *queueRun { return d.runs[run] }

func (d *queueDeploy) noteFirst(run int64, now sim.Time) {
	if t := d.runs[run]; t != nil && !t.haveFirst {
		t.haveFirst = true
		t.firstExec = now
	}
}

// wrap adapts a stage to its position in the chain: the head records
// the handoff time and enqueues, the first queue-triggered stage marks
// the paper's Az-Queue cold-start point, middle stages enqueue, and the
// tail completes the run's future (idempotently, for duplicated queue
// messages under chaos).
func (d *queueDeploy) wrap(stage flow.StageFn, next *queue.Queue, head, first bool) functions.Handler {
	return func(ctx *functions.Context, input []byte) ([]byte, error) {
		if first {
			d.noteFirst(d.def.RunIDOf(input), ctx.Proc().Now())
		}
		out, err := stage(ctx, input)
		if err != nil {
			return nil, err
		}
		p := ctx.Proc()
		if next != nil {
			if head {
				if t := d.track(d.def.RunIDOf(input)); t != nil {
					t.enqueuedAt = p.Now()
				}
			}
			return nil, next.Enqueue(p, out)
		}
		if t := d.track(d.def.RunIDOf(input)); t != nil && !t.done.Done() {
			t.done.Complete(out, nil)
		}
		return nil, nil
	}
}

// Invoke implements core.Runner: trigger the head over HTTP, await the
// completion signalled by the tail. The paper measures this style from
// the trigger timestamp until the last function finishes.
func (d *queueDeploy) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	d.nextRun++
	run := d.nextRun
	t := &queueRun{start: p.Now(), done: sim.NewFuture[[]byte](d.env.K)}
	d.runs[run] = t
	if _, err := d.env.Azure.Host.InvokeHTTPAsync(p, d.headFn, d.def.Entry(flow.Queue, run)); err != nil {
		return core.RunStats{}, err
	}
	out, err := t.done.Await(p)
	delete(d.runs, run)
	if err != nil {
		return core.RunStats{}, err
	}
	stats := core.RunStats{E2E: p.Now() - t.start, Output: out}
	if !t.haveFirst {
		return stats, fmt.Errorf("%s: queue chain never started", d.def.ErrPrefix)
	}
	// The paper's Az-Queue cold-start metric is the wait of the first
	// queue-triggered stage ("queuing of requests on a static pool of
	// containers"): time from handoff into the queue to execution.
	stats.ColdStart = t.firstExec - t.enqueuedAt
	return stats, nil
}
