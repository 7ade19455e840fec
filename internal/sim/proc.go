package sim

import "fmt"

// TraceContext identifies the span a process is currently executing
// under, for observability instrumentation layered on top of the
// kernel (see internal/obs/span). The zero value means "untraced".
//
// It lives in package sim — rather than the span package — so that a
// Proc can carry it without the kernel depending on any observability
// code: the kernel never reads it.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Proc is a simulation process: a goroutine that takes turns with the
// other processes and Run's caller. At most one runs at a time; a
// process gives up control by calling a blocking operation (Sleep,
// Await, a resource acquire), which runs the event loop on the
// process's goroutine until an event wakes a process. If that is the
// process itself, the call returns without a goroutine switch;
// otherwise the baton passes to the woken process.
//
// All Proc methods must be called from the process's own goroutine.
type Proc struct {
	k    *Kernel
	id   int64
	name string

	// TraceCtx is the ambient span context for instrumentation.
	// Services set it around handler invocations so nested operations
	// (queue hops, sub-spans) attach to the right parent; the kernel
	// itself ignores it. Zero when tracing is disabled.
	TraceCtx TraceContext

	// resume receives the baton. One slot lets the sender move on to its
	// own wait before a just-spawned process reaches its receive.
	resume chan struct{}
	dead   bool

	// unparkFn is Unpark bound as a method value once at spawn, so that
	// wake — the Sleep hot path, millions of events per campaign —
	// never allocates a closure per wake-up.
	unparkFn func()
}

// Spawn creates a process named name and schedules it to start at the
// current virtual time. fn runs on its own goroutine under the kernel's
// one-at-a-time discipline; when fn returns the process ends.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	return k.SpawnAfter(0, name, fn)
}

// SpawnAfter is like Spawn but delays the start of the process by d.
func (k *Kernel) SpawnAfter(d Time, name string, fn func(p *Proc)) *Proc {
	k.procSeq++
	p := &Proc{k: k, id: k.procSeq, name: name, resume: make(chan struct{}, 1)}
	p.unparkFn = p.Unpark
	k.live++
	k.After(d, func() {
		go p.run(fn)
		p.Unpark()
	})
	return p
}

// run is the body of the process goroutine: it waits for its first
// turn, runs fn, and then keeps dispatching events until it can pass
// the baton on.
func (p *Proc) run(fn func(p *Proc)) {
	<-p.resume
	fn(p)
	p.dead = true
	p.k.live--
	p.k.handoff(p.k.dispatch())
}

// Park suspends the process until an event callback Unparks it,
// running the event loop in the meantime. The caller must have already
// arranged for a wake-up; parking with no pending wake-up leaves the
// process parked for good while the run ends without it.
//
// Park and Unpark let a component drive a parked process from event
// callbacks: the callbacks run on whichever goroutine holds the baton,
// and the process resumes only in the event that Unparks it.
func (p *Proc) Park() {
	next := p.k.dispatch()
	if next == p {
		return
	}
	p.k.handoff(next)
	<-p.resume
}

// Unpark makes p the next process to run. It must be called from an
// event callback, at most once per event, for a process that is
// parked: the event loop passes the baton to p as soon as the callback
// returns.
func (p *Proc) Unpark() {
	if p.dead {
		panic(fmt.Sprintf("sim: unpark of finished proc %q", p.name))
	}
	p.k.next = p
}

// wake schedules the process to be resumed after d. Safe to call from
// either kernel or process context.
func (p *Proc) wake(d Time) {
	p.k.After(d, p.unparkFn)
}

// Kernel returns the kernel this process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.Now() }

// Sleep suspends the process for d of virtual time. Non-positive d
// yields control for one scheduling round at the current instant.
func (p *Proc) Sleep(d Time) {
	p.wake(d)
	p.Park()
}

// String implements fmt.Stringer.
func (p *Proc) String() string { return fmt.Sprintf("proc#%d(%s)", p.id, p.name) }
