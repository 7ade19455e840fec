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
		OpLatency:         sim.NewLogNormal(5*time.Millisecond, 0.4, 500*time.Millisecond),
		MaxPayload:        256 * 1024,
		VisibilityTimeout: 30 * time.Second,
		MaxDequeueCount:   5,
	}
}

// PayloadTooLargeError reports an enqueue whose payload's encoded size
// exceeds MaxPayload.
type PayloadTooLargeError struct {
	Queue string
	Size  int
	Limit int
}

func (e *PayloadTooLargeError) Error() string {
	return fmt.Sprintf("queue %s: payload %d bytes exceeds limit %d", e.Queue, e.Size, e.Limit)
}

// Message is a queued message. Body is the payload exactly as its
// sender enqueued it: []byte for the Az-Queue chains and queue-triggered
// functions, a typed envelope for the classic Durable task hub. The
// queue never looks inside it; the sender states the payload's encoded
// size at enqueue, and the queue reads only that, for MaxPayload. A
// Body is shared by the sender and every receiver of the message
// (a redelivered or duplicated message delivers the same Body again),
// so receivers treat it as read-only.
//
// Ctx carries the sender's trace context across the hop (the in-memory
// analogue of an SQS/Storage Queue trace header); it is never
// serialized, so enabling tracing cannot change payload sizes or
// billing.
type Message struct {
	ID         int64
	Body       any
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

	// listener is the Listener running on the queue, if any.
	listener *Listener
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

// Enqueue appends body, whose encoded size is size bytes, consuming
// one operation latency. It fails if size exceeds the payload limit.
func (q *Queue) Enqueue(p *sim.Proc, body any, size int) error {
	if err := q.admit(size); err != nil {
		return err
	}
	p.Sleep(q.params.OpLatency.Sample(q.rng))
	q.nextID++
	q.push(&Message{ID: q.nextID, Body: body, EnqueuedAt: p.Now(), Ctx: p.TraceCtx})
	return nil
}

// EnqueueFromKernelCtx is Enqueue from event-loop context: the message
// becomes visible one operation latency later. ctx is the trace
// context for the hop span, for senders that have no process (e.g. the
// Durable hub completing a task from event-loop context).
func (q *Queue) EnqueueFromKernelCtx(body any, size int, ctx sim.TraceContext) error {
	if err := q.admit(size); err != nil {
		return err
	}
	d := q.params.OpLatency.Sample(q.rng)
	q.k.After(d, func() {
		q.nextID++
		q.push(&Message{ID: q.nextID, Body: body, EnqueuedAt: q.k.Now(), Ctx: ctx})
	})
	return nil
}

// admit checks a payload of size encoded bytes against the limit and
// books the enqueue.
func (q *Queue) admit(size int) error {
	if q.params.MaxPayload > 0 && size > q.params.MaxPayload {
		return &PayloadTooLargeError{Queue: q.name, Size: size, Limit: q.params.MaxPayload}
	}
	q.stats.Enqueues++
	return nil
}

// push makes m visible at the tail of the queue. The listener's
// pending quiet step, which can now deliver m, is exposed.
func (q *Queue) push(m *Message) {
	q.msgs = append(q.msgs, m)
	if q.listener != nil {
		q.listener.expose()
	}
}

// TryDequeue polls the queue once, consuming one operation latency.
// An empty result is metered as an EmptyPoll (billable).
func (q *Queue) TryDequeue(p *sim.Proc) (*Message, bool) {
	p.Sleep(q.pollLatency())
	return q.take()
}

// pollLatency draws one poll's operation latency.
func (q *Queue) pollLatency() time.Duration { return q.params.OpLatency.Sample(q.rng) }

// take ends a poll whose latency has elapsed: it delivers the head
// message, or books an empty poll or a chaos redelivery and returns
// false. It never blocks, so it may run in an event callback.
func (q *Queue) take() (*Message, bool) {
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
	q.Tracer.Emit(span.KindHop, "queue/"+q.name, m.EnqueuedAt, q.k.Now(), m.Ctx)
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
			q.Chaos.NoteDeadLetter(m.Ctx, q.name)
		}
		return
	}
	vt := q.params.VisibilityTimeout
	if vt <= 0 {
		vt = 30 * time.Second
	}
	q.k.After(vt, func() { q.push(m) })
}
