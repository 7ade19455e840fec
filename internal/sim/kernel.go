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
// Pending events wait in one of four kinds of storage: a 4-ary heap
// for events queued for a later instant than the clock's, an O(1) FIFO
// lane for events queued for the current one, any number of Timers,
// calendar queues for closure-free events that one handler runs
// (completions, instance starts, fixed-delay timers, a
// self-rescheduling chain), and a second 4-ary heap for quiet events
// (Quiet). Each event draws its seq from one kernel-wide counter, and
// each of these queues yields its events in (at, seq) order, so its
// head is its minimum. The event loop always runs whichever head has
// the smallest (at, seq) key, so the execution order is the order a
// single heap would give. See DESIGN.md §11 for the determinism
// argument.
//
// # Quiet events and the horizon
//
// A quiet event is one that nothing but its owner can observe until
// the owner exposes it (Expose). Horizon returns the earliest instant
// at which anything else can act, so an owner whose work reads and
// writes only its own state may do the steps that fall before the
// horizon at once, ahead of the clock, and queue the first step that
// does not as a quiet event: every event that could see the
// difference runs at or after the horizon. The queue listeners run
// their idle polls this way (DESIGN.md §11).
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, measured as an offset from the start
// of the simulation.
type Time = time.Duration

// event is a callback queued in the immediate lane. The struct is
// deliberately kept at three words: the lane stores events by value.
type event struct {
	key eventKey
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

// heap4 is a 4-ary min-heap of values ordered by their (at, seq) keys,
// stored structure-of-arrays: keys and values in parallel backing
// slices. It serves the kernel's closure heap and quiet heap (values
// are closures) and the overflow tier of every Timers (values are the
// handler's argument). Compared to container/heap with boxed items
// this kills the per-push allocation (the backing arrays are their own
// free lists: popped slots are reused by later pushes); the 4-ary
// layout halves the tree depth; the key/value split halves the cache
// lines per sifted level — under multi-million-event pending sets the
// heap walk is memory-bound, so lines per level is the whole cost
// model. Sifts move a hole instead of swapping (one array write per
// level, not three).
type heap4[V any] struct {
	keys []eventKey
	vals []V
}

// push adds v under key and restores the heap property.
func (q *heap4[V]) push(key eventKey, v V) {
	n := len(q.keys)
	if n == cap(q.keys) || n == cap(q.vals) {
		// Grow whichever array is full (caps can drift apart across
		// size classes, so both are checked, not assumed in step).
		var zero V
		q.keys = append(q.keys, eventKey{})[:n]
		q.vals = append(q.vals, zero)[:n]
	}
	ks, vs := q.keys[:n+1], q.vals[:n+1]
	q.keys, q.vals = ks, vs
	// Sift the hole up: parents move down until the new element's slot
	// is found; it is written exactly once, into its final slot.
	i := n
	for i > 0 {
		p := (i - 1) / 4
		if !key.before(ks[p]) {
			break
		}
		ks[i], vs[i] = ks[p], vs[p]
		i = p
	}
	ks[i], vs[i] = key, v
}

// pop removes the minimum and returns its key and value.
func (q *heap4[V]) pop() (eventKey, V) {
	ks, vs := q.keys, q.vals
	top, topV := ks[0], vs[0]
	n := len(ks) - 1
	key, v := ks[n], vs[n]
	var zero V
	ks[n], vs[n] = eventKey{}, zero // release a closure to the GC
	ks, vs = ks[:n], vs[:n]
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
			ks[i], vs[i] = ks[min], vs[min]
			i = min
		}
		ks[i], vs[i] = key, v
	}
	q.keys, q.vals = ks, vs
	return top, topV
}

// release frees the backing arrays.
func (q *heap4[V]) release() { q.keys, q.vals = nil, nil }

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

	// heap holds every event that At, After or a process queued for a
	// later instant than the clock read when it was queued.
	heap heap4[func()]

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

	// timers are the calendar queues made by NewTimers, and
	// timerEvents counts the events they hold: while it is zero the
	// event loop never looks at them.
	timers      []*Timers
	timerEvents int

	// quiet holds the events Quiet queued, and exposed the keys of
	// those that Expose has made count in Horizon, until each runs.
	quiet   heap4[func()]
	exposed []eventKey

	pending  int
	executed uint64

	// Tick listener: a passive observer of clock advancement, invoked by
	// the run loop whenever the clock crosses a tickEvery boundary —
	// before the boundary-crossing event's callback runs, so the
	// listener sees the pre-event state of the instant it is told about.
	// The listener is not an event: it draws no sequence number,
	// schedules nothing, and therefore cannot perturb execution order —
	// simulation results are byte-identical with or without one.
	// Without a listener, tickNext is the largest Time.
	tickFn    func(boundary Time)
	tickEvery Time
	tickNext  Time
}

// NewKernel returns a kernel whose clock starts at zero. seed is the
// master seed from which all component RNG streams are derived; the same
// seed always reproduces the same run.
func NewKernel(seed uint64) *Kernel {
	return &Kernel{done: make(chan struct{}, 1), seed: seed, deadline: -1, tickNext: math.MaxInt64}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) runs the event at the current time, after already-queued
// events for this instant. An event due now goes to the immediate
// lane, a later one to the heap.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.pending++
	key := eventKey{at: t, seq: k.seq}
	if t == k.now {
		k.imm = append(k.imm, event{key: key, fn: fn})
		return
	}
	k.heap.push(key, fn)
}

// After schedules fn to run d from now. Negative d is treated as zero.
func (k *Kernel) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	k.At(k.now+d, fn)
}

// QuietEvent names a queued quiet event, for Expose.
type QuietEvent struct{ key eventKey }

// Quiet queues fn to run at t as a quiet event: one that runs like an
// At event, in the same (at, seq) order and counted by Pending and
// Executed, but that Horizon ignores until it is exposed. Only an
// owner whose event nothing else can observe may queue one.
func (k *Kernel) Quiet(t Time, fn func()) QuietEvent {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.pending++
	key := eventKey{at: t, seq: k.seq}
	k.quiet.push(key, fn)
	return QuietEvent{key: key}
}

// Expose makes the pending quiet event e count in Horizon until it
// runs, for an owner whose event something else can now observe. e
// must not have run yet.
func (k *Kernel) Expose(e QuietEvent) {
	k.exposed = append(k.exposed, e.key)
}

// Horizon returns the earliest instant at which anything other than
// an unexposed quiet event can act: the clock, if a process has been
// woken or an event is due now; otherwise the earliest of the heap's
// and the Timers' heads, the tick listener's next boundary, the
// instant after RunUntil's deadline, and the exposed quiet events, but
// never before the clock (RunUntil can move the clock past the tick
// boundary without running an event, and the boundary moves only when
// an event crosses it). With none of these it returns the largest
// Time.
func (k *Kernel) Horizon() Time {
	if k.next != nil || k.immHead < len(k.imm) {
		return k.now
	}
	h := k.tickNext
	if len(k.heap.keys) > 0 {
		h = min(h, k.heap.keys[0].at)
	}
	for _, tm := range k.timers {
		if tm.n > 0 {
			h = min(h, tm.peek().key.at)
		}
	}
	if k.deadline >= 0 {
		h = min(h, k.deadline+1)
	}
	for _, e := range k.exposed {
		h = min(h, e.at)
	}
	return max(h, k.now)
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
		if k.timerEvents > 0 {
			if tm := k.nextTimers(); tm != nil {
				if !k.runTimers(tm, deadline) {
					return nil
				}
				if p := k.next; p != nil {
					k.next = nil
					return p
				}
				continue
			}
		}
		if len(k.quiet.keys) > 0 && k.quietFirst() {
			if !k.runQuiet(deadline) {
				return nil
			}
			if p := k.next; p != nil {
				k.next = nil
				return p
			}
			continue
		}
		// The next event is the smaller (at, seq) of the lane head and the
		// heap head. The lane head's at is the current instant, never
		// after the heap head's, so on equal at the seq decides: a heap
		// event queued for this instant before the clock reached it runs
		// before a lane event queued since.
		lane := k.immHead < len(k.imm)
		if lane && len(k.heap.keys) > 0 {
			ie := &k.imm[k.immHead]
			lane = ie.key.before(k.heap.keys[0])
		}
		var at Time
		if lane {
			at = k.imm[k.immHead].key.at
		} else {
			at = k.heap.keys[0].at
		}
		if !k.due(at, deadline) {
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
			_, fn = k.heap.pop()
		}
		k.advance(at)
		fn()
		if p := k.next; p != nil {
			k.next = nil
			return p
		}
	}
	if k.pending == 0 {
		k.release()
	}
	return nil
}

// release frees the event storage of a drained run. Callers routinely
// keep the Env (and so the kernel) alive long after a campaign for
// drill-downs; the backing arrays should not be pinned with it.
func (k *Kernel) release() {
	k.heap.release()
	k.quiet.release()
	k.imm = nil
	k.immHead = 0
	for _, tm := range k.timers {
		tm.release()
	}
}

// due reports whether an event at `at` may run under the deadline. If
// not, the run ends with the clock moved up to the deadline.
func (k *Kernel) due(at, deadline Time) bool {
	if deadline >= 0 && at > deadline {
		if deadline > k.now {
			k.now = deadline
		}
		return false
	}
	return true
}

// advance books the event about to run at `at`: the clock moves to
// it, and the tick listener is told of any boundary it crosses.
func (k *Kernel) advance(at Time) {
	k.pending--
	k.executed++
	k.now = at
	if at >= k.tickNext {
		k.tick(at)
	}
}

// nextTimers returns the Timers whose head runs next, or nil when the
// immediate lane's, the heap's or the quiet heap's head comes first.
// The caller has checked that some Timers holds an event.
func (k *Kernel) nextTimers() *Timers {
	var best *Timers
	key := eventKey{at: math.MaxInt64, seq: math.MaxInt64}
	for _, tm := range k.timers {
		if tm.n > 0 {
			if h := tm.peek().key; h.before(key) {
				best, key = tm, h
			}
		}
	}
	if k.immHead < len(k.imm) {
		if k.imm[k.immHead].key.before(key) {
			return nil
		}
	}
	if len(k.heap.keys) > 0 && k.heap.keys[0].before(key) {
		return nil
	}
	if len(k.quiet.keys) > 0 && k.quiet.keys[0].before(key) {
		return nil
	}
	return best
}

// runTimers runs tm's head event, which nextTimers has loaded, as
// dispatch runs the others, or stops the run and returns false when
// that event falls after the deadline.
func (k *Kernel) runTimers(tm *Timers, deadline Time) bool {
	e := tm.cur[tm.head]
	if !k.due(e.key.at, deadline) {
		return false
	}
	tm.pop()
	k.timerEvents--
	k.advance(e.key.at)
	tm.fn(e.arg)
	return true
}

// quietFirst reports whether the quiet heap's head runs before the
// immediate lane's and the heap's. The caller has checked that the
// quiet heap holds an event and that no Timers' head comes first.
func (k *Kernel) quietFirst() bool {
	key := k.quiet.keys[0]
	if k.immHead < len(k.imm) {
		if k.imm[k.immHead].key.before(key) {
			return false
		}
	}
	return len(k.heap.keys) == 0 || key.before(k.heap.keys[0])
}

// runQuiet runs the quiet heap's head event, as runTimers runs a
// Timers', and drops it from the exposed events if it is one.
func (k *Kernel) runQuiet(deadline Time) bool {
	key := k.quiet.keys[0]
	if !k.due(key.at, deadline) {
		return false
	}
	_, fn := k.quiet.pop()
	for i, e := range k.exposed {
		if e == key {
			last := len(k.exposed) - 1
			k.exposed[i] = k.exposed[last]
			k.exposed = k.exposed[:last]
			break
		}
	}
	k.advance(key.at)
	fn()
	return true
}

// tick tells the tick listener that the clock, now at, has reached or
// crossed its next boundary. Coalesce: after an idle gap the listener
// is told only the last boundary at or before the clock, not every
// skipped one (windowed telemetry has nothing to say about empty
// windows). It is kept out of line so that advance, on the path of
// every event, inlines.
//
//go:noinline
func (k *Kernel) tick(at Time) {
	if k.tickFn == nil {
		return // an event at the largest Time, with no listener
	}
	b := at - at%k.tickEvery
	k.tickNext = b + k.tickEvery
	k.tickFn(b)
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
		k.tickFn, k.tickEvery, k.tickNext = nil, 0, math.MaxInt64
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
