package durable

import (
	"time"

	"statebench/internal/chaos"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// This file defines the Store seam: the boundary between the Durable
// Task Framework's execution model (episodes, replay, entities,
// clients — everything else in this package) and the storage/transport
// layer that moves its messages and persists its history. The classic
// store (classic.go) is the paper's Azure Storage task hub: billed
// control/work-item queues with polling listeners and per-episode
// history-table round trips. internal/azure/netherite implements the
// same interface as a partitioned, group-committed, speculative log —
// the vendor's shipped fix for exactly the per-operation storage costs
// the paper measures. The orchestration semantics above the seam are
// shared, which is what makes the two backends conformance-comparable.

// Envelope is a task-hub message as it travels between the client,
// orchestrations, activities, and entities. It is an alias of the
// package's internal message type so Store implementations in other
// packages can transport it without this package re-wrapping payloads.
type Envelope = message

// Record is one event-sourcing history record as persisted by a Store.
// Alias of the internal history event type for the same reason.
type Record = histEvent

// Exported message-kind constants for Store implementations that need
// to inspect envelopes (e.g. to dedup redelivered ExecutionStarted
// messages).
const (
	KindExecutionStarted = kindExecutionStarted
	KindTaskCompleted    = kindTaskCompleted
	KindTimerFired       = kindTimerFired
	KindEntityOp         = kindEntityOp
	KindEventRaised      = kindEventRaised
)

// CommitVerdict is the outcome of persisting one episode's new history
// records.
type CommitVerdict int

const (
	// CommitOK: the batch is (or will deterministically become)
	// durable; the episode proceeds to dispatch and completion.
	CommitOK CommitVerdict = iota
	// CommitLost: a chaos-injected crash lost the uncommitted batch.
	// The episode's speculative work is void: the hub discards its
	// results, re-inboxes the triggering messages, and replays the
	// episode from the last durable state.
	CommitLost
	// CommitCrashAfter: the batch is durable but the host crashed
	// before acknowledging the triggering messages. Actions dispatch,
	// then the messages redeliver and replay deduplicates the re-folded
	// events against the persisted history.
	CommitCrashAfter
)

// Store is the storage/transport backend of a task hub. Implementations
// must be deterministic: same kernel seed, same chaos plan, same
// behavior — byte for byte.
type Store interface {
	// Start binds the store to its hub and launches any background
	// listeners (the classic store's pollers, which it also kicks on
	// the host's HTTP activity). Called once from NewHub before any
	// traffic.
	Start(h *Hub)

	// SendControl enqueues a control envelope from kernel/callback
	// context and wakes its consumer.
	SendControl(m Envelope) error
	// SendControlFromProc enqueues a control envelope, charging the
	// send latency to p.
	SendControlFromProc(p *sim.Proc, m Envelope) error
	// SendWork enqueues an activity work item.
	SendWork(m Envelope) error

	// LoadHistory returns the instance's persisted history in sequence
	// order, charging any read cost to p.
	LoadHistory(p *sim.Proc, instance string) []Record
	// CommitEpisode persists one episode's new records and returns the
	// commit verdict plus the settle delay: how long after now the
	// commit becomes externally visible (zero for a synchronous store).
	// The hub defers client-visible completion by the settle delay;
	// internal progress is speculative and proceeds immediately.
	CommitEpisode(p *sim.Proc, instance, orchestrator string, tctx sim.TraceContext, recs []Record) (CommitVerdict, time.Duration)
	// PurgeHistory deletes the instance's history (ContinueAsNew).
	PurgeHistory(p *sim.Proc, instance string)

	// ReadEntityState rehydrates an entity's persisted state at the
	// start of an operation batch, including the store's state-access
	// latency.
	ReadEntityState(p *sim.Proc, instance string) ([]byte, bool)
	// WriteEntityState persists an entity's state after a dirty batch.
	WriteEntityState(p *sim.Proc, instance string, data []byte)
	// QueryEntityState is the client's status-query read path.
	QueryEntityState(p *sim.Proc, instance string) ([]byte, bool)
	// PeekEntityState inspects state without billing (tests/reports).
	PeekEntityState(instance string) ([]byte, bool)

	// Transactions sums billable storage transactions so far.
	Transactions() int64
	// ResetStats zeroes the transaction counters.
	ResetStats()

	// SetTracer enables span emission on the store's transports.
	SetTracer(tr *span.Tracer)
	// SetChaos enables fault injection on the store's transports and
	// commit path.
	SetChaos(inj *chaos.Injector)
}

// DeliverControl routes a control envelope into the hub from kernel
// context — the delivery half of a Store's transport. Exported for
// Store implementations outside this package.
func (h *Hub) DeliverControl(m Envelope) { h.handleControlMessage(m) }

// DeliverWork executes an activity work item — the work-item delivery
// half of a Store's transport.
func (h *Hub) DeliverWork(m Envelope) { h.handleWorkItem(m) }
