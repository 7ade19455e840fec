// Package durable simulates the Azure Durable Functions extension (the
// Durable Task Framework): orchestrator functions executed by event-
// sourcing replay over a history table, stateless activities dispatched
// through a work-item queue, durable entities with serialized
// operations, sub-orchestrations, and durable timers — all connected by
// billed control queues on a task hub.
//
// The cost anomalies the paper measures emerge mechanistically here:
// orchestrator replays inflate GB-s (Fig 11a), constant control/work-
// item queue polling bills transactions even when idle (Fig 11c, 15),
// and every activity execution rides the function app's rate-limited
// scale controller (Fig 12/14).
//
// Storage and transport live behind the Store seam (store.go): the
// classic Azure Storage task hub above is the default, and
// internal/azure/netherite plugs in a partitioned, group-committed,
// speculative log behind the same orchestration semantics.
package durable

import (
	"fmt"

	"statebench/internal/azure/functions"
	"statebench/internal/chaos"
	"statebench/internal/cloud/queue"
	"statebench/internal/cloud/table"
	"statebench/internal/obs/span"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// OrchestratorFn is a user orchestrator. It must be deterministic: it is
// re-executed (replayed) from the start on every wake-up, exactly like a
// real Durable orchestrator.
type OrchestratorFn func(ctx *OrchestrationContext, input []byte) ([]byte, error)

// ActivityFn is a stateless activity body.
type ActivityFn func(ctx *functions.Context, input []byte) ([]byte, error)

// EntityFn handles one operation on a durable entity.
type EntityFn func(ctx *EntityContext, op string, input []byte) ([]byte, error)

// message is a task-hub queue message. Messages are serialized to JSON
// on the billed queues so payload limits act on realistic sizes.
type message struct {
	Kind     string `json:"kind"`
	Instance string `json:"instance"`
	TaskID   int    `json:"taskId,omitempty"`
	Name     string `json:"name,omitempty"`
	Op       string `json:"op,omitempty"`
	Input    []byte `json:"input,omitempty"`
	Result   []byte `json:"result,omitempty"`
	Error    string `json:"error,omitempty"`
	// Caller routing for entity calls and sub-orchestrations.
	Caller     string `json:"caller,omitempty"`
	CallerTask int    `json:"callerTask,omitempty"`
	// Signal marks one-way entity messages (no response).
	Signal bool `json:"signal,omitempty"`
	// TraceID/SpanID propagate span causality across queue hops, the
	// way X-Ray trace headers ride real messages. Zero (omitted) when
	// tracing is disabled, so payload sizes are unchanged then.
	TraceID uint64 `json:"traceId,omitempty"`
	SpanID  uint64 `json:"spanId,omitempty"`
}

// traceCtx extracts the message's propagated span context.
func (m message) traceCtx() sim.TraceContext {
	return sim.TraceContext{TraceID: m.TraceID, SpanID: m.SpanID}
}

// TraceCtx is the exported form of traceCtx for Store implementations.
func (m message) TraceCtx() sim.TraceContext { return m.traceCtx() }

// stamped returns m carrying ctx, unless m already has a context.
func stamped(m message, ctx sim.TraceContext) message {
	if m.TraceID == 0 {
		m.TraceID, m.SpanID = ctx.TraceID, ctx.SpanID
	}
	return m
}

// Message kinds.
const (
	kindExecutionStarted = "ExecutionStarted"
	kindTaskCompleted    = "TaskCompleted"
	kindTaskFailed       = "TaskFailed"
	kindTimerFired       = "TimerFired"
	kindEntityOp         = "EntityOp"
	kindEntityResponse   = "EntityResponse"
	kindSubOrchCompleted = "SubOrchCompleted"
	kindSubOrchFailed    = "SubOrchFailed"
	kindEventRaised      = "EventRaised"
)

// PayloadTooLargeError reports a durable message body over the 64 KB
// cross-function limit; callers must stage large data in blob storage,
// as the paper's workloads do.
type PayloadTooLargeError struct {
	What  string
	Size  int
	Limit int
}

func (e *PayloadTooLargeError) Error() string {
	return fmt.Sprintf("durable: %s payload %d bytes exceeds %d limit", e.What, e.Size, e.Limit)
}

// orchState is the in-memory runtime record of one orchestration.
type orchState struct {
	id         string
	name       string
	inbox      []message
	active     bool // an episode is queued/running
	done       bool
	handle     *Handle
	parent     string // parent instance for sub-orchestrations
	parentTask int

	// orchSpan covers the whole orchestration (created at start, ended
	// at completion); tctx is its context, the parent of every episode,
	// activity, timer, and entity op the orchestration causes.
	orchSpan span.Active
	tctx     sim.TraceContext
}

// entityState is the runtime record of one entity (its durable state
// lives in the store; this tracks the operation queue).
type entityState struct {
	id     string
	name   string
	key    string
	inbox  []message
	active bool
}

// Hub is a simulated task hub bound to one function app. Its storage
// and transport are a pluggable Store; orchestration semantics
// (episodes, replay, entities, clients) are shared across stores.
type Hub struct {
	k      *sim.Kernel
	rng    *sim.RNG
	host   *functions.Host
	params platform.AzureParams

	store Store

	orchestrators map[string]OrchestratorFn
	activities    map[string]string // activity name -> host function name
	entities      map[string]EntityFn

	orchs map[string]*orchState
	ents  map[string]*entityState

	nextInstance int64

	// Stats.
	EpisodeCount int64
	ReplayEvents int64

	// Tracer, when non-nil, emits orchestration/episode/entity-op spans
	// (queue hops are emitted by the queues themselves).
	Tracer *span.Tracer

	// Chaos, when non-nil, can crash orchestrator episodes before or
	// after history persistence; the triggering control messages are
	// then redelivered and event-sourcing replay recovers the run.
	Chaos *chaos.Injector
}

// NewHub creates a task hub on host with the classic Azure Storage
// store: billed control/work-item queues, history table, and polling
// listeners.
func NewHub(k *sim.Kernel, host *functions.Host, name string) *Hub {
	return NewHubWithStore(k, host, name, newClassicStore(k, name, host.Params()))
}

// NewHubWithStore creates a task hub on host backed by an arbitrary
// Store implementation (the Netherite backend plugs in here).
func NewHubWithStore(k *sim.Kernel, host *functions.Host, name string, store Store) *Hub {
	h := &Hub{
		k:             k,
		rng:           k.Stream("durable/" + name),
		host:          host,
		params:        host.Params(),
		store:         store,
		orchestrators: make(map[string]OrchestratorFn),
		activities:    make(map[string]string),
		entities:      make(map[string]EntityFn),
		orchs:         make(map[string]*orchState),
		ents:          make(map[string]*entityState),
	}
	store.Start(h)
	return h
}

// SetTracer enables span emission on the hub and its store. Call
// before running workloads (core.Env.EnableTracing does).
func (h *Hub) SetTracer(tr *span.Tracer) {
	h.Tracer = tr
	h.store.SetTracer(tr)
}

// SetChaos enables fault injection on the hub's episode execution and
// on its store. Call before running workloads (core.Env.EnableChaos
// does).
func (h *Hub) SetChaos(inj *chaos.Injector) {
	h.Chaos = inj
	h.store.SetChaos(inj)
}

// Host returns the function app this hub runs on.
func (h *Hub) Host() *functions.Host { return h.host }

// Kernel returns the simulation kernel the hub runs on.
func (h *Hub) Kernel() *sim.Kernel { return h.k }

// Params returns the hub's platform calibration.
func (h *Hub) Params() platform.AzureParams { return h.params }

// Store returns the hub's storage/transport backend.
func (h *Hub) Store() Store { return h.store }

// classic returns the classic store, or nil when the hub runs on a
// different Store implementation (the table/queue accessors below are
// classic-only surfaces kept for transaction-accounting tests).
func (h *Hub) classic() *classicStore {
	cs, _ := h.store.(*classicStore)
	return cs
}

// HistoryTable exposes the classic store's history table (for
// transaction accounting); nil for non-classic stores.
func (h *Hub) HistoryTable() *table.Table {
	if cs := h.classic(); cs != nil {
		return cs.history
	}
	return nil
}

// InstancesTable exposes the classic store's instances table; nil for
// non-classic stores.
func (h *Hub) InstancesTable() *table.Table {
	if cs := h.classic(); cs != nil {
		return cs.instances
	}
	return nil
}

// ControlQueues exposes the classic store's control queues (for
// transaction accounting); nil for non-classic stores.
func (h *Hub) ControlQueues() []*queue.Queue {
	if cs := h.classic(); cs != nil {
		return cs.control
	}
	return nil
}

// WorkItemQueue exposes the classic store's work-item queue; nil for
// non-classic stores.
func (h *Hub) WorkItemQueue() *queue.Queue {
	if cs := h.classic(); cs != nil {
		return cs.workItems
	}
	return nil
}

// StorageTransactions sums billable storage transactions across the
// hub's store — the stateful cost component of Azure.
func (h *Hub) StorageTransactions() int64 { return h.store.Transactions() }

// ResetStorageStats zeroes the store's transaction counters.
func (h *Hub) ResetStorageStats() { h.store.ResetStats() }

// RegisterOrchestrator adds an orchestrator function. Episodes are
// billed as executions of a host function with the same name.
func (h *Hub) RegisterOrchestrator(name string, consumedMemMB int, fn OrchestratorFn) error {
	if _, dup := h.orchestrators[name]; dup {
		return fmt.Errorf("durable: orchestrator %q already registered", name)
	}
	if _, err := h.host.Register(functions.Config{
		Name:          name,
		ConsumedMemMB: consumedMemMB,
		Handler:       h.episodeHandler(name),
	}); err != nil {
		return err
	}
	h.orchestrators[name] = fn
	return nil
}

// RegisterActivity adds a stateless activity, hosted as a function.
func (h *Hub) RegisterActivity(name string, consumedMemMB int, fn ActivityFn) error {
	if _, dup := h.activities[name]; dup {
		return fmt.Errorf("durable: activity %q already registered", name)
	}
	if _, err := h.host.Register(functions.Config{
		Name:          name,
		ConsumedMemMB: consumedMemMB,
		Handler:       functions.Handler(fn),
	}); err != nil {
		return err
	}
	h.activities[name] = name
	return nil
}

// RegisterEntity adds a durable entity class. Operations on each entity
// key are serialized; the handler is billed as a host function.
func (h *Hub) RegisterEntity(name string, consumedMemMB int, fn EntityFn) error {
	if _, dup := h.entities[name]; dup {
		return fmt.Errorf("durable: entity %q already registered", name)
	}
	if _, err := h.host.Register(functions.Config{
		Name:          "entity:" + name,
		ConsumedMemMB: consumedMemMB,
		Handler:       h.entityEpisodeHandler(name),
	}); err != nil {
		return err
	}
	h.entities[name] = fn
	return nil
}

// send enqueues a control message (from kernel or callback context).
func (h *Hub) send(m message) error { return h.store.SendControl(m) }

// sendFromProc enqueues a control message, charging send latency to p.
// Unstamped messages pick up p's ambient trace context.
func (h *Hub) sendFromProc(p *sim.Proc, m message) error {
	return h.store.SendControlFromProc(p, stamped(m, p.TraceCtx))
}

// sendWorkItem enqueues an activity work item.
func (h *Hub) sendWorkItem(m message) error { return h.store.SendWork(m) }
