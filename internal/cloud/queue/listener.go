package queue

import (
	"fmt"
	"time"

	"statebench/internal/sim"
)

// The listener's back-off: after an empty poll, wait minPoll, doubling
// each time up to the caller's cap (defaultMaxPoll when it gives none).
const (
	minPoll        = 100 * time.Millisecond
	pollBackoff    = 2
	defaultMaxPoll = 30 * time.Second
)

// Listener is the one adaptive poller behind every Azure storage-queue
// consumer: queue-triggered functions and the classic Durable task
// hub's control and work-item listeners. It polls until the queue is
// empty, then backs off exponentially; a Kick (activity the host can
// observe, such as a local enqueue or an HTTP trigger) ends the
// current wait and resets the interval. Every poll, empty or not, is a
// billed transaction, so an idle listener keeps paying (paper Fig 15).
//
// Between deliveries the listener's process stays parked, and the
// poll, wait and hop of each cycle run as event callbacks on whichever
// goroutine holds the kernel's baton: the poll's end, the back-off
// timer and the hop that ends the wait. A kick that ends a wait adds
// its own wake-up before the hop, and the timer it beat still fires
// later, as a no-op. The process resumes only to handle a delivered
// message, since handlers may block, or to return on stop.
//
// An idle cycle (see idle) reads and writes only the listener, its
// queue's EmptyPolls and its queue's RNG stream, so its steps that
// fall before the kernel's horizon (sim.Kernel.Horizon) run at once,
// ahead of the clock, and its first step at or past the horizon is
// queued as a quiet event; a message that becomes visible exposes
// that step (sim.Kernel.Expose). Every event that could observe the
// difference runs at or past the horizon, so the listener books the
// same empty polls and deliveries at the same instants, with the same
// latency draws, as a loop on the process (reference_test.go), which
// the goldens were recorded with; only the kernel's event count
// falls.
type Listener struct {
	k *sim.Kernel

	// Run's arguments, read by the callbacks.
	p       *sim.Proc
	q       *Queue
	maxPoll time.Duration
	stop    *sim.Future[struct{}]

	interval time.Duration // the next wait's length

	// kicked records a kick since the last wait ended: the current
	// wait ends early, or the next one at once. waiting holds from the
	// start of a wait until its hop or a kick, so that a kick in that
	// span schedules a wake-up; live holds until the timer or the
	// kick's wake-up ends the wait, and the other one is a no-op.
	kicked, waiting, live bool
	// gen numbers the waits; a timer from an earlier wait is a no-op.
	gen uint64
	// msg hands a delivery to the parked process; nil resumes it to
	// return on stop.
	msg *Message

	// step is the quiet event of an idle cycle's next step while
	// quiet holds: until the step runs, its wait ends, or a message
	// exposes it.
	step  sim.QuietEvent
	quiet bool

	// The callbacks, bound once so that scheduling them allocates
	// nothing.
	pollFn, kickFn, hopFn func()
	// free holds timer records whose event has fired.
	free []*timer
}

// timer is one wait's back-off timer. It carries its wait's
// generation, and its record is reused once its event has fired, so a
// wait allocates nothing.
type timer struct {
	l    *Listener
	gen  uint64
	fire func()
}

// NewListener returns an unkicked listener on k.
func NewListener(k *sim.Kernel) *Listener {
	l := &Listener{k: k}
	l.pollFn, l.kickFn, l.hopFn = l.polled, l.kickWake, l.hop
	return l
}

// Kick ends the listener's current back-off wait and resets its
// interval. A kick while the listener is not waiting makes its next
// wait return at once.
func (l *Listener) Kick() {
	if l.kicked {
		return
	}
	l.kicked = true
	if l.waiting {
		l.waiting = false
		l.k.After(0, l.kickFn)
	}
}

// Run polls q from p until stop completes, calling handle with every
// delivered message. maxPoll caps the back-off interval; a
// non-positive maxPoll means 30 s. stop is checked before each poll,
// so a listener in a back-off wait returns when that wait ends. A
// queue has one listener at a time: the idle polls a listener runs
// ahead of the clock draw from the queue's RNG stream.
func (l *Listener) Run(p *sim.Proc, q *Queue, maxPoll time.Duration, stop *sim.Future[struct{}], handle func(*Message)) {
	if maxPoll <= 0 {
		maxPoll = defaultMaxPoll
	}
	if q.listener != nil {
		panic(fmt.Sprintf("queue %s: a second listener", q.name))
	}
	q.listener = l
	defer func() { q.listener = nil }()
	l.p, l.q, l.maxPoll, l.stop = p, q, maxPoll, stop
	l.interval = minPoll
	for !stop.Done() {
		l.poll()
		p.Park()
		m := l.msg
		if m == nil {
			return // stopped
		}
		l.msg = nil
		handle(m)
	}
}

// idle reports whether the listener's cycle is an idle one: its queue
// is empty, no kick is pending and stop has not completed. Only an
// event at or past the kernel's horizon can change that.
func (l *Listener) idle() bool {
	return len(l.q.msgs) == 0 && !l.kicked && !l.stop.Done()
}

// poll starts a poll: polled runs one operation latency later.
func (l *Listener) poll() { l.next(l.k.Now() + l.q.pollLatency()) }

// polled ends a poll. A delivered message resumes the process; an
// empty poll, or a chaos redelivery, starts a back-off wait, which
// ends at once after a kick since the last one.
func (l *Listener) polled() {
	l.quiet = false
	if m, ok := l.q.take(); ok {
		l.interval = minPoll
		l.msg = m
		l.p.Unpark()
		return
	}
	if l.kicked {
		l.hop()
		return
	}
	l.wait()
	l.next(l.k.Now() + l.interval)
}

// next queues the listener's next step, due at the instant at: the
// wait's timer while the wait is live, the poll's end otherwise. An
// idle cycle runs each step that falls before the kernel's horizon at
// once, through the transitions its event would run, and queues the
// first that does not as a quiet event.
func (l *Listener) next(at sim.Time) {
	idle := l.idle()
	if idle {
		for h := l.k.Horizon(); at < h; {
			if l.live {
				// The timer ends the wait, and the hop polls again.
				l.live = false
				l.backoff()
				at += l.q.pollLatency()
			} else {
				l.q.take() // an empty poll
				l.wait()
				at += l.interval
			}
		}
	}
	fn := l.pollFn
	if l.live {
		fn = l.timer().fire
	}
	if idle {
		l.step, l.quiet = l.k.Quiet(at, fn), true
		return
	}
	l.k.At(at, fn)
}

// wait starts a back-off wait.
func (l *Listener) wait() {
	l.gen++
	l.waiting, l.live = true, true
}

// timer returns a timer record for the current wait.
func (l *Listener) timer() *timer {
	var t *timer
	if n := len(l.free); n > 0 {
		t, l.free = l.free[n-1], l.free[:n-1]
	} else {
		t = &timer{l: l}
		t.fire = t.expire
	}
	t.gen = l.gen
	return t
}

// expire is a timer's event: it ends its wait unless the wait has
// already ended.
func (t *timer) expire() {
	l := t.l
	if t.gen == l.gen && l.live {
		l.end()
	}
	l.free = append(l.free, t)
}

// kickWake is a kick's wake-up event: it ends the wait unless the
// timer has already ended it.
func (l *Listener) kickWake() {
	if l.live {
		l.end()
	}
}

// expose tells the listener that a message has become visible on its
// queue: its pending quiet step, which can now deliver it, becomes
// one the kernel's horizon counts.
func (l *Listener) expose() {
	if l.quiet {
		l.quiet = false
		l.k.Expose(l.step)
	}
}

// end ends the current wait and queues its hop at this instant.
func (l *Listener) end() {
	l.live, l.quiet = false, false
	l.k.After(0, l.hopFn)
}

// hop follows the end of a wait, or stands in for a wait that a kick
// skipped. Then the listener polls again, or, once stop has
// completed, resumes its process with no message, to return.
func (l *Listener) hop() {
	l.backoff()
	if l.stop.Done() {
		l.p.Unpark()
		return
	}
	l.poll()
}

// backoff sets the next wait's length as a wait ends: a kick resets
// the interval and a timeout doubles it, up to the cap.
func (l *Listener) backoff() {
	l.waiting = false
	if l.kicked {
		l.kicked = false
		l.interval = minPoll
	} else {
		l.interval = min(l.interval*pollBackoff, l.maxPoll)
	}
}
