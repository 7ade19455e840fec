// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel advances a virtual clock by executing events in (time,
// sequence) order. On top of raw events it offers simpy-style blocking
// processes (see Proc): goroutines that run one at a time, interleaved
// with the event loop, so that simulation code can be written in plain
// sequential style (Sleep, Await, resource acquisition) while the whole
// run remains fully deterministic and independent of the host clock.
//
// Exactly one goroutine holds the baton at any instant — the caller of
// Run or a single process — and the holder runs the event loop itself.
// An event that wakes a process only records it; once the event
// returns, the holder either carries on as that process (its own
// wake-up: no goroutine switch) or passes the baton on that process's
// channel (one switch). When the run drains, stops or reaches its
// deadline, the holder passes the baton back to Run's caller.
//
// # Concurrency contract
//
// A Kernel and everything attached to it (processes, futures,
// resources, the simulated platforms of a core.Env) belong to exactly
// one host goroutine, the one that calls Run, and to the process
// goroutines it passes the baton to. Kernels are cheap; code that
// wants parallelism creates one kernel per goroutine (see
// internal/parallel) and never shares a kernel, a Proc, or any
// simulated component across host goroutines. Nothing in this package
// locks, by design: each baton pass is a channel operation, which
// orders one holder's writes before the next holder's reads. A panic
// in an event callback unwinds whichever goroutine holds the baton.
//
// # Event storage
//
// Pending events wait in one of two places: a 4-ary heap for events
// queued for a later instant than the clock's, and an O(1) FIFO lane
// for events queued for the current one. Each event draws its seq from
// one kernel-wide counter, and the event loop always runs whichever of
// the two heads has the smaller (at, seq) key, so the execution order
// is the order a single heap would give. See DESIGN.md §11 for the
// determinism argument.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start
// of the simulation.
type Time = time.Duration

// event is a scheduled callback. The struct is deliberately kept at
// three words: the heap stores events by value, so every extra field
// is copied on every sift — widening it measurably slows the
// push/pop hot path.
type event struct {
	at  Time
	seq int64
	fn  func()
}

// eventKey is the 16-byte ordering key of a queued event. Keys live in
// their own backing array so that one 4-ary sift level's four children
// span exactly one cache line (4 × 16 B); with the closure pointers
// inline (24-byte elements) every level touched two.
type eventKey struct {
	at  Time
	seq int64
}

// before orders keys by (at, seq): time first, insertion order on ties.
func (a eventKey) before(b eventKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventQueue is a 4-ary min-heap of events ordered by (at, seq), stored
// structure-of-arrays: keys and closures in parallel backing slices.
// Compared to container/heap with boxed *event items this kills the
// per-At allocation (the backing arrays are their own free lists:
// popped slots are reused by later pushes); the 4-ary layout halves the
// tree depth; the key/closure split halves the cache lines per sifted
// level — under multi-million-event pending sets the heap walk is
// memory-bound, so lines per level is the whole cost model. Sifts move
// a hole instead of swapping (one array write per level, not three).
type eventQueue struct {
	keys []eventKey
	fns  []func()
}

// push appends e and restores the heap property.
func (q *eventQueue) push(e event) {
	n := len(q.keys)
	if n == cap(q.keys) || n == cap(q.fns) {
		// Grow whichever array is full (caps can drift apart across
		// size classes, so both are checked, not assumed in step).
		q.keys = append(q.keys, eventKey{})[:n]
		q.fns = append(q.fns, nil)[:n]
	}
	ks, fs := q.keys[:n+1], q.fns[:n+1]
	q.keys, q.fns = ks, fs
	// Sift the hole up: parents move down until e's slot is found; the
	// new element is written exactly once, into its final slot.
	key := eventKey{at: e.at, seq: e.seq}
	i := n
	for i > 0 {
		p := (i - 1) / 4
		if !key.before(ks[p]) {
			break
		}
		ks[i], fs[i] = ks[p], fs[p]
		i = p
	}
	ks[i], fs[i] = key, e.fn
}

// pop removes and returns the minimum event.
func (q *eventQueue) pop() event {
	ks, fs := q.keys, q.fns
	top := event{at: ks[0].at, seq: ks[0].seq, fn: fs[0]}
	n := len(ks) - 1
	key, fn := ks[n], fs[n]
	ks[n], fs[n] = eventKey{}, nil // release the closure to the GC
	ks, fs = ks[:n], fs[:n]
	if n > 0 {
		// Sift the hole down: the displaced last element chases it.
		i := 0
		for {
			first := 4*i + 1
			if first >= n {
				break
			}
			last := first + 4
			if last > n {
				last = n
			}
			min := first
			for c := first + 1; c < last; c++ {
				if ks[c].before(ks[min]) {
					min = c
				}
			}
			if !ks[min].before(key) {
				break
			}
			ks[i], fs[i] = ks[min], fs[min]
			i = min
		}
		ks[i], fs[i] = key, fn
	}
	q.keys, q.fns = ks, fs
	return top
}

// release frees the backing arrays.
func (q *eventQueue) release() { q.keys, q.fns = nil, nil }

// Kernel is a discrete-event simulation engine with a virtual clock.
// Create one with NewKernel; it is not safe for concurrent use from
// multiple host goroutines (all access must come from the goroutine
// holding the baton — see the package comment's concurrency contract).
type Kernel struct {
	now     Time
	seq     int64
	seed    uint64
	procSeq int64
	live    int // live (started, unfinished) procs; diagnostics only

	// Baton passing: next is the process the current event woke, done
	// returns the baton to RunUntil's caller, and deadline is
	// RunUntil's bound, which any holder may reach.
	next     *Proc
	done     chan struct{}
	deadline Time
	switches uint64

	// heap holds every event queued for a later instant than the
	// clock read when it was queued.
	heap eventQueue

	// imm is the immediate lane: a FIFO of events due at the current
	// instant. Entries are appended with kernel-wide increasing seq, so
	// the lane is (at, seq)-sorted by construction, and the clock can
	// never advance past them (their at is never in the future), so the
	// lane never holds a stale instant. Same-instant scheduling —
	// wake(0), After(0), future completions — dominates real workloads,
	// and the lane serves it with an append and an index bump instead
	// of two O(log n) heap walks.
	imm     []event
	immHead int

	pending  int
	executed uint64

	// Tick listener: a passive observer of clock advancement, invoked by
	// the run loop whenever the clock crosses a tickEvery boundary —
	// before the boundary-crossing event's callback runs, so the
	// listener sees the pre-event state of the instant it is told about.
	// The listener is not an event: it draws no sequence number,
	// schedules nothing, and therefore cannot perturb execution order —
	// simulation results are byte-identical with or without one.
	tickFn    func(boundary Time)
	tickEvery Time
	tickNext  Time
}

// NewKernel returns a kernel whose clock starts at zero. seed is the
// master seed from which all component RNG streams are derived; the same
// seed always reproduces the same run.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{done: make(chan struct{}, 1), seed: seed}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// push queues an event: in the immediate lane if it is due at the
// current instant, otherwise in the heap.
func (k *Kernel) push(e event) {
	k.pending++
	if e.at == k.now {
		k.imm = append(k.imm, e)
		return
	}
	k.heap.push(e)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) runs the event at the current time, after already-queued
// events for this instant.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.push(event{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (k *Kernel) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+d, fn)
}

// pushUnpark schedules p's resume d from now without allocating: the
// closure is the per-process unparkFn bound once at spawn — the hot
// path behind Proc.wake (and so Sleep), millions of events per
// campaign, which used to allocate a method value each.
func (k *Kernel) pushUnpark(d time.Duration, p *Proc) {
	if d < 0 {
		d = 0
	}
	k.seq++
	k.push(event{at: k.now + d, seq: k.seq, fn: p.unparkFn})
}

// Run executes events until the queue is empty. It returns the final
// virtual time.
func (k *Kernel) Run() Time { return k.RunUntil(-1) }

// RunUntil executes events until the queue is empty or the next event
// would be after deadline (deadline < 0 means no limit).
// The clock is left at the last executed event (or at deadline, if the
// deadline cut execution short and deadline is beyond the clock).
func (k *Kernel) RunUntil(deadline Time) Time {
	k.deadline = deadline
	if next := k.dispatch(); next != nil {
		k.handoff(next)
		<-k.done
	}
	return k.now
}

// dispatch runs the event loop on the calling goroutine, which must
// hold the baton, until an event wakes a process or the run ends
// (drained, or past the deadline). It returns the woken
// process, or nil when the run ended.
func (k *Kernel) dispatch() *Proc {
	deadline := k.deadline
	for k.pending > 0 {
		// The next event is the smaller (at, seq) of the lane head and the
		// heap head. The lane head's at is the current instant, never
		// after the heap head's, so on equal at the seq decides: a heap
		// event queued for this instant before the clock reached it runs
		// before a lane event queued since.
		lane := k.immHead < len(k.imm)
		if lane && len(k.heap.keys) > 0 {
			ie := &k.imm[k.immHead]
			lane = eventKey{at: ie.at, seq: ie.seq}.before(k.heap.keys[0])
		}
		var at Time
		if lane {
			at = k.imm[k.immHead].at
		} else {
			at = k.heap.keys[0].at
		}
		if deadline >= 0 && at > deadline {
			if deadline > k.now {
				k.now = deadline
			}
			return nil
		}
		var fn func()
		if lane {
			fn = k.imm[k.immHead].fn
			k.imm[k.immHead] = event{} // release the closure to the GC
			k.immHead++
			if k.immHead == len(k.imm) {
				k.imm = k.imm[:0] // drained: reuse the backing array
				k.immHead = 0
			}
		} else {
			fn = k.heap.pop().fn
		}
		k.pending--
		k.executed++
		k.now = at
		if k.tickFn != nil && at >= k.tickNext {
			// Coalesce: after an idle gap the listener is told only the
			// last boundary at or before the clock, not every skipped one
			// (windowed telemetry has nothing to say about empty windows).
			b := at - at%k.tickEvery
			k.tickNext = b + k.tickEvery
			k.tickFn(b)
		}
		fn()
		if p := k.next; p != nil {
			k.next = nil
			return p
		}
	}
	if k.pending == 0 {
		// The run drained: release the event storage. Callers routinely
		// keep the Env (and so the kernel) alive long after a campaign
		// for drill-downs; the backing arrays should not be pinned with
		// it.
		k.heap.release()
		k.imm = nil
		k.immHead = 0
	}
	return nil
}

// handoff passes the baton from the calling goroutine to next, or back
// to RunUntil's caller when next is nil. The caller must touch no
// kernel state afterwards: the new holder may already be running.
func (k *Kernel) handoff(next *Proc) {
	k.switches++
	if next == nil {
		k.done <- struct{}{}
		return
	}
	next.resume <- struct{}{}
}

// SetTickListener registers fn to be called by the run loop each time
// the clock reaches or crosses a multiple of every, passing the
// boundary crossed (ticks skipped while no events fire are coalesced
// into the most recent boundary). The listener is passive: it runs
// outside the event order, draws no sequence numbers, and must not
// schedule events or otherwise mutate simulation state — it exists so
// telemetry can observe window boundaries without perturbing the run.
// The first tick fires at `every`, not at 0. A nil fn (or every <= 0)
// removes the listener, restoring the zero-cost path.
func (k *Kernel) SetTickListener(every Time, fn func(boundary Time)) {
	if fn == nil || every <= 0 {
		k.tickFn, k.tickEvery, k.tickNext = nil, 0, 0
		return
	}
	k.tickFn, k.tickEvery = fn, every
	k.tickNext = (k.now/every)*every + every
}

// Pending returns the number of queued events.
func (k *Kernel) Pending() int { return k.pending }

// Executed returns the total number of events the kernel has run, the
// denominator for events/sec throughput reporting.
func (k *Kernel) Executed() uint64 { return k.executed }

// Switches returns the number of baton passes between goroutines,
// Run's caller included. A process woken by an event it dispatched
// itself resumes in place and costs none.
func (k *Kernel) Switches() uint64 { return k.switches }

// LiveProcs returns the number of spawned processes that have not yet
// finished (parked processes count). Useful for leak detection in tests.
func (k *Kernel) LiveProcs() int { return k.live }

// String implements fmt.Stringer for debugging.
func (k *Kernel) String() string {
	return fmt.Sprintf("sim.Kernel{now: %v, pending: %d, procs: %d}", k.now, k.pending, k.live)
}
