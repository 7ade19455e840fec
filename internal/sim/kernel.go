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
// # Sharded event storage
//
// Internally the pending-event set is split across S per-partition
// 4-ary heaps (S is a power of two, chosen at construction; NewKernel
// uses one) plus an O(1) FIFO lane for events due at the current
// instant. The event loop merges across partitions by scanning a flat
// array of cached head keys and always executing the globally minimal
// (at, seq) pair. Because seq is assigned from a single kernel-wide
// counter and the merge compares full keys, the execution order is
// exactly the single-heap order for every shard count: partitioning
// affects only which backing array an event waits in, never when it
// runs. See DESIGN.md §11 for the full determinism argument.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// len returns the number of queued events.
func (q *eventQueue) len() int { return len(q.keys) }

// head returns the minimum key. Call only when len() > 0.
func (q *eventQueue) head() eventKey { return q.keys[0] }

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

// headSentinel marks an empty shard in the cached head-key arrays. No
// real event can carry it: at is clamped to the clock (≥ 0) and seq
// starts at 1.
const headSentinel = math.MaxInt64

// maxShards bounds the shard count; beyond this the O(S) head scan per
// pop costs more than the smaller heaps save.
const maxShards = 1024

// Kernel is a discrete-event simulation engine with a virtual clock.
// Create one with NewKernel (single event partition) or
// NewKernelSharded; it is not safe for concurrent use from multiple
// host goroutines (all access must come from the goroutine holding the
// baton — see the package comment's concurrency contract).
type Kernel struct {
	now     Time
	seq     int64
	seed    uint64
	procSeq int64
	stopped bool
	live    int // live (started, unfinished) procs; diagnostics only

	// Baton passing: next is the process the current event woke, done
	// returns the baton to RunUntil's caller, and deadline is
	// RunUntil's bound, which any holder may reach.
	next     *Proc
	done     chan struct{}
	deadline Time
	switches uint64

	// Sharded pending-event storage. shards holds the per-partition
	// heaps; headAt/headSeq cache each shard's minimum key (headSentinel
	// when empty) so the cross-partition merge scans two flat int64
	// arrays instead of chasing heap backing arrays.
	shards  []eventQueue
	headAt  []Time
	headSeq []int64
	mask    uint32 // len(shards)-1; shard routing is hash & mask

	// minAt/minSeq/minSrc cache the global minimum over the shard
	// heads. A push can only lower its shard's head, so it refreshes
	// the cache with one compare; only a heap pop (which changed the
	// minimum shard's head) triggers the O(shards) rescan. Immediate-
	// lane pops never touch shard heads, so the merge step for them is
	// O(1) at any shard count.
	minAt  Time
	minSeq int64
	minSrc int32

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

	cur      uint32 // shard of the event being executed; routes At
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
func NewKernel(seed uint64) *Kernel { return NewKernelSharded(seed, 1) }

// NewKernelSharded returns a kernel whose pending-event set is split
// across shards partitions (rounded up to a power of two, clamped to
// [1, 1024]). Sharding is purely an event-storage layout choice: the
// execution order — and therefore every simulation result — is
// byte-identical for every shard count. More shards mean smaller,
// cache-friendlier heaps under very large pending sets (millions of
// queued events) at the cost of an O(shards) head scan per pop.
func NewKernelSharded(seed uint64, shards int) *Kernel {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	if shards&(shards-1) != 0 {
		shards = 1 << bits.Len(uint(shards))
	}
	k := &Kernel{
		done:    make(chan struct{}, 1),
		seed:    seed,
		shards:  make([]eventQueue, shards),
		headAt:  make([]Time, shards),
		headSeq: make([]int64, shards),
		mask:    uint32(shards - 1),
	}
	for s := range k.headAt {
		k.headAt[s] = headSentinel
		k.headSeq[s] = headSentinel
	}
	k.minAt, k.minSeq, k.minSrc = headSentinel, headSentinel, -1
	return k
}

// rescanHeads recomputes the cached global minimum over the shard
// heads. Called after a heap pop (the popped shard's head changed) and
// on drain.
func (k *Kernel) rescanHeads() {
	at, seq, src := Time(headSentinel), int64(headSentinel), int32(-1)
	for s, ha := range k.headAt {
		if ha < at || (ha == at && k.headSeq[s] < seq) {
			at, seq, src = ha, k.headSeq[s], int32(s)
		}
	}
	k.minAt, k.minSeq, k.minSrc = at, seq, src
}

// ShardCount returns the number of event partitions.
func (k *Kernel) ShardCount() int { return len(k.shards) }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the master seed the kernel was created with.
func (k *Kernel) Seed() uint64 { return k.seed }

// push routes an event to the immediate lane if it is due at the
// current instant, otherwise to the given shard's heap, refreshing the
// cached head key.
func (k *Kernel) push(shard uint32, e event) {
	k.pending++
	if e.at == k.now {
		k.imm = append(k.imm, e)
		return
	}
	q := &k.shards[shard]
	q.push(e)
	if k.mask == 0 {
		// Single-shard kernels skip the head/min caches entirely: the
		// one heap's head is the global minimum, read directly by
		// RunUntil's fast path. The cache arrays stay all-sentinel.
		return
	}
	h := q.head()
	k.headAt[shard] = h.at
	k.headSeq[shard] = h.seq
	// A push only lowers (or keeps) its shard's head, so the cached
	// global minimum stays valid unless this head undercuts it.
	if h.at < k.minAt || (h.at == k.minAt && h.seq < k.minSeq) {
		k.minAt, k.minSeq, k.minSrc = h.at, h.seq, int32(shard)
	}
}

// At schedules fn to run at absolute virtual time t. Scheduling in the
// past (t < Now) runs the event at the current time, after already-queued
// events for this instant. The event lands in the partition of the
// event currently executing (partition 0 outside the loop); use AtKeyed
// to pin related work to one partition.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.push(k.cur&k.mask, event{at: t, seq: k.seq, fn: fn})
}

// AtKeyed is At with an explicit partition affinity key: all events
// scheduled under the same key share a shard heap, keeping a tenant's
// (or a platform component's) timer footprint within one backing
// array. The key changes only data layout — execution order is
// independent of partition assignment.
func (k *Kernel) AtKeyed(key uint64, t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.seq++
	k.push(uint32(mix64(key))&k.mask, event{at: t, seq: k.seq, fn: fn})
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
	k.push(p.shard&k.mask, event{at: k.now + d, seq: k.seq, fn: p.unparkFn})
}

// pushCondUnpark schedules a conditional wake-up d from now: when the
// event fires, p is resumed — through a second unpark event, keeping
// the two-hop event shape (and therefore the sequence-number layout)
// of the flag-based path it replaced — only if p's await generation
// still equals gen. A stale generation means the other side of a
// timeout race already woke the process, and the event is a no-op.
// The one closure allocated here is per timed await, not per wake.
func (k *Kernel) pushCondUnpark(d time.Duration, p *Proc, gen uint64) {
	if d < 0 {
		d = 0
	}
	k.seq++
	k.push(p.shard&k.mask, event{at: k.now + d, seq: k.seq, fn: func() {
		if p.awaitGen == gen {
			p.awaitGen++
			k.pushUnpark(0, p)
		}
	}})
}

// Run executes events until the queue is empty or Stop is called.
// It returns the final virtual time.
func (k *Kernel) Run() Time { return k.RunUntil(-1) }

// RunUntil executes events until the queue is empty, Stop is called, or
// the next event would be after deadline (deadline < 0 means no limit).
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
// (drained, stopped, or past the deadline). It returns the woken
// process, or nil when the run ended.
func (k *Kernel) dispatch() *Proc {
	single, deadline := k.mask == 0, k.deadline
	for k.pending > 0 && !k.stopped {
		// Merge: the next event is the global (at, seq) minimum across
		// the immediate lane and the cached shard-head minimum. The lane
		// head is a candidate only on equal at (its at is always the
		// current instant, never ahead of a shard head's), so ties fall
		// to seq — and the whole step is O(1): the O(shards) rescan runs
		// only after heap pops, inside rescanHeads. Single-shard kernels
		// read the one heap's head directly and skip the caches (and the
		// rescan) altogether — the pre-shard kernel's exact cost model.
		var at Time
		var seq int64
		var src int
		if single {
			at, seq, src = headSentinel, headSentinel, 0
			if q := &k.shards[0]; len(q.keys) > 0 {
				at, seq = q.keys[0].at, q.keys[0].seq
			}
		} else {
			at, seq, src = k.minAt, k.minSeq, int(k.minSrc)
		}
		if k.immHead < len(k.imm) {
			ie := &k.imm[k.immHead]
			if ie.at < at || (ie.at == at && ie.seq < seq) {
				at, seq, src = ie.at, ie.seq, -1
			}
		}
		if deadline >= 0 && at > deadline {
			if deadline > k.now {
				k.now = deadline
			}
			return nil
		}
		var fn func()
		if src < 0 {
			fn = k.imm[k.immHead].fn
			k.imm[k.immHead] = event{} // release the closure to the GC
			k.immHead++
			if k.immHead == len(k.imm) {
				k.imm = k.imm[:0] // drained: reuse the backing array
				k.immHead = 0
			}
		} else {
			q := &k.shards[src]
			fn = q.pop().fn
			if !single {
				if q.len() > 0 {
					h := q.head()
					k.headAt[src] = h.at
					k.headSeq[src] = h.seq
				} else {
					k.headAt[src] = headSentinel
					k.headSeq[src] = headSentinel
				}
				k.cur = uint32(src)
				k.rescanHeads()
			}
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
		// it. The head-key arrays already read all-sentinel and stay.
		for s := range k.shards {
			k.shards[s].release()
		}
		k.imm = nil
		k.immHead = 0
		k.minAt, k.minSeq, k.minSrc = headSentinel, headSentinel, -1
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

// Stop halts the event loop after the current event completes. Parked
// processes are abandoned (their goroutines remain blocked until process
// exit; they hold no host resources beyond their stacks).
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

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
