// Package queue models a cloud storage queue (Azure Storage Queue /
// SQS analogue). Its defining property for this study is the billing
// model: every enqueue, dequeue, *and empty poll* is a metered storage
// transaction, which is the mechanism behind Azure Durable Functions'
// idle-time charges (paper §II-B, §V-A).
package queue

import (
	"fmt"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// Params describes a queue's latency, payload, and redelivery behavior.
type Params struct {
	// OpLatency is the per-operation service latency.
	OpLatency sim.Dist
	// MaxPayload is the maximum message size in bytes (0 = unlimited).
	// Azure Storage Queues and SQS both cap at 256 KB.
	MaxPayload int
	// VisibilityTimeout is how long a message stays invisible after a
	// failed (chaos-redelivered) or duplicated delivery before it
	// reappears at the tail of the queue.
	VisibilityTimeout time.Duration
	// MaxDequeueCount dead-letters a message once its dequeue attempts
	// reach this count (poison-message handling). 0 disables
	// dead-lettering (unlimited redelivery, the Durable Task Framework
	// control-queue behavior).
	MaxDequeueCount int
}

// DefaultParams matches Azure Storage Queue behavior: ~5 ms operations,
// 256 KB payloads, a 30 s visibility timeout, and poison messages
// dead-lettered after 5 dequeues.
func DefaultParams() Params {
	return Params{
		OpLatency:         sim.LogNormalDist{Median: 5 * time.Millisecond, Sigma: 0.4, Max: 500 * time.Millisecond},
		MaxPayload:        256 * 1024,
		VisibilityTimeout: 30 * time.Second,
		MaxDequeueCount:   5,
	}
}

// PayloadTooLargeError reports an Enqueue whose body exceeds MaxPayload.
type PayloadTooLargeError struct {
	Queue string
	Size  int
	Limit int
}

func (e *PayloadTooLargeError) Error() string {
	return fmt.Sprintf("queue %s: payload %d bytes exceeds limit %d", e.Queue, e.Size, e.Limit)
}

// Message is a queued message. Ctx carries the sender's trace context
// across the hop (the in-memory analogue of an SQS/Storage Queue trace
// header); it is never serialized, so enabling tracing cannot change
// payload sizes or billing.
type Message struct {
	ID         int64
	Body       []byte
	EnqueuedAt sim.Time
	Dequeues   int
	Ctx        sim.TraceContext
}

// Stats counts queue operations. EmptyPolls are polls that found no
// message; they are billable transactions on Azure.
type Stats struct {
	Enqueues   int64
	Dequeues   int64
	EmptyPolls int64
	Bytes      int64
	// Redeliveries counts failed delivery attempts (the consumer
	// crashed before acknowledging): the get happened, the delete
	// never did, and the message reappeared after the visibility
	// timeout. Only chaos injection produces these.
	Redeliveries int64
	// DeadLettered counts poison messages moved to the dead-letter
	// queue after MaxDequeueCount attempts.
	DeadLettered int64
}

// Transactions returns the billable transaction count. A successful
// dequeue costs two operations (get + delete), matching Azure Storage
// Queue semantics. A redelivered attempt bills only its get (the
// delete never happened), and a dead-letter move bills two more
// operations (put on the poison queue + delete from the source).
func (s Stats) Transactions() int64 {
	return s.Enqueues + 2*s.Dequeues + s.EmptyPolls + s.Redeliveries + 2*s.DeadLettered
}

// Queue is a simulated storage queue. Receivers use polling (TryDequeue,
// usually through a Listener), never push delivery — that is exactly
// the storage-queue model whose transaction costs the paper
// characterizes.
type Queue struct {
	k      *sim.Kernel
	rng    *sim.RNG
	name   string
	params Params
	msgs   []*Message
	dead   []*Message
	nextID int64
	stats  Stats

	// Tracer, when non-nil, receives one KindHop span per delivered
	// message (enqueue→dequeue), parented to the sender's context.
	Tracer *span.Tracer
	// Chaos, when non-nil, can turn a delivery into a redelivery (the
	// message reappears after VisibilityTimeout, or dead-letters) or a
	// duplicate (delivered now and again later) — the at-least-once
	// semantics real storage queues exhibit under consumer failure.
	Chaos *chaos.Injector
}

// New creates an empty queue named name.
func New(k *sim.Kernel, name string, params Params) *Queue {
	return &Queue{k: k, rng: k.Stream("queue/" + name), name: name, params: params}
}

// Name returns the queue name.
func (q *Queue) Name() string { return q.name }

// Len returns the number of queued messages (control-plane; free).
func (q *Queue) Len() int { return len(q.msgs) }

// Stats returns a snapshot of the operation counters.
func (q *Queue) Stats() Stats { return q.stats }

// ResetStats zeroes the operation counters.
func (q *Queue) ResetStats() { q.stats = Stats{} }

// Enqueue appends body, consuming one operation latency. It fails if
// body exceeds the payload limit.
func (q *Queue) Enqueue(p *sim.Proc, body []byte) error {
	if q.params.MaxPayload > 0 && len(body) > q.params.MaxPayload {
		return &PayloadTooLargeError{Queue: q.name, Size: len(body), Limit: q.params.MaxPayload}
	}
	q.stats.Enqueues++
	q.stats.Bytes += int64(len(body))
	p.Sleep(q.params.OpLatency.Sample(q.rng))
	q.nextID++
	q.msgs = append(q.msgs, &Message{ID: q.nextID, Body: body, EnqueuedAt: p.Now(), Ctx: p.TraceCtx})
	return nil
}

// EnqueueFromKernel appends body from event-loop context (no process to
// sleep); the message becomes visible after one mean op latency.
func (q *Queue) EnqueueFromKernel(body []byte) error {
	return q.EnqueueFromKernelCtx(body, sim.TraceContext{})
}

// EnqueueFromKernelCtx is EnqueueFromKernel with an explicit trace
// context for the hop span, for senders that have no process (e.g. the
// Durable hub completing a task from event-loop context).
func (q *Queue) EnqueueFromKernelCtx(body []byte, ctx sim.TraceContext) error {
	if q.params.MaxPayload > 0 && len(body) > q.params.MaxPayload {
		return &PayloadTooLargeError{Queue: q.name, Size: len(body), Limit: q.params.MaxPayload}
	}
	q.stats.Enqueues++
	q.stats.Bytes += int64(len(body))
	d := q.params.OpLatency.Sample(q.rng)
	q.k.After(d, func() {
		q.nextID++
		q.msgs = append(q.msgs, &Message{ID: q.nextID, Body: body, EnqueuedAt: q.k.Now(), Ctx: ctx})
	})
	return nil
}

// TryDequeue polls the queue once, consuming one operation latency.
// An empty result is metered as an EmptyPoll (billable).
func (q *Queue) TryDequeue(p *sim.Proc) (*Message, bool) {
	p.Sleep(q.params.OpLatency.Sample(q.rng))
	if len(q.msgs) == 0 {
		q.stats.EmptyPolls++
		return nil, false
	}
	m := q.msgs[0]
	dup := false
	if q.Chaos != nil {
		if flt, ok := q.Chaos.Next(m.Ctx, "queue", q.name); ok {
			if flt.Kind != chaos.Duplicate {
				// Redelivery: the get happened but the consumer died
				// before acknowledging. The caller sees an empty poll;
				// the message reappears after the visibility timeout
				// unless its dequeue count is exhausted.
				q.msgs = q.msgs[1:]
				m.Dequeues++
				q.stats.Redeliveries++
				q.settleInvisible(m, false)
				return nil, false
			}
			dup = true
		}
	}
	q.stats.Dequeues++
	q.msgs = q.msgs[1:]
	m.Dequeues++
	// The hop span is emitted retroactively at delivery: only now is the
	// in-flight window (enqueue → dequeue) known.
	q.Tracer.Emit(span.KindHop, "queue/"+q.name, m.EnqueuedAt, p.Now(), m.Ctx)
	if dup {
		// Duplicate: the delivery succeeded but the delete was lost, so
		// the visibility timeout lapses and the same message reappears
		// later as a ghost copy — classic at-least-once delivery.
		q.settleInvisible(m, true)
	}
	return m, true
}

// settleInvisible decides the fate of a message whose delete was never
// applied: reappear after the visibility timeout, or — if the attempt
// failed and MaxDequeueCount is exhausted — move to the dead-letter
// queue. A successfully delivered duplicate whose attempts are
// exhausted simply stops ghosting (it is never poisoned).
func (q *Queue) settleInvisible(m *Message, delivered bool) {
	if q.params.MaxDequeueCount > 0 && m.Dequeues >= q.params.MaxDequeueCount {
		if !delivered {
			q.stats.DeadLettered++
			q.dead = append(q.dead, m)
			q.Chaos.NoteDeadLetter(m.Ctx, q.name)
		}
		return
	}
	vt := q.params.VisibilityTimeout
	if vt <= 0 {
		vt = 30 * time.Second
	}
	if !delivered {
		// Only a failed attempt makes the consumer wait out the
		// visibility timeout. A delivered duplicate's ghost copy is
		// surplus traffic, not recovery time — booking it would inflate
		// RecoveryDelay by 30s per duplicate that delayed nothing.
		q.Chaos.NoteRecovery(vt)
	}
	q.k.After(vt, func() {
		q.msgs = append(q.msgs, m)
	})
}

// DeadLetters returns the poison messages moved off the queue, in
// move order. The slice is owned by the queue.
func (q *Queue) DeadLetters() []*Message { return q.dead }

// PeekAge returns the age of the oldest message, or 0 if empty.
// Control-plane only (used by autoscalers, which in the real systems
// read queue-length metrics out of band).
func (q *Queue) PeekAge(now sim.Time) time.Duration {
	if len(q.msgs) == 0 {
		return 0
	}
	return now - q.msgs[0].EnqueuedAt
}
