package queue

import (
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
// poll, wait and hop of each idle cycle run as event callbacks on
// whichever goroutine holds the kernel's baton. An empty poll costs
// three events: the poll's end, the back-off timer and the hop that
// ends the wait. A kick that ends a wait adds its own wake-up before
// the hop, and the timer it beat still fires later, as a no-op. These
// must stay exactly the events, instants and latency draws of a loop
// on the process (reference_test.go), which the goldens were recorded
// with. The process resumes only to handle a delivered message, since
// handlers may block, or to return on stop.
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
// so a listener in a back-off wait returns when that wait ends.
func (l *Listener) Run(p *sim.Proc, q *Queue, maxPoll time.Duration, stop *sim.Future[struct{}], handle func(*Message)) {
	if maxPoll <= 0 {
		maxPoll = defaultMaxPoll
	}
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

// poll starts a poll: polled runs one operation latency later.
func (l *Listener) poll() { l.k.After(l.q.pollLatency(), l.pollFn) }

// polled ends a poll. A delivered message resumes the process; an
// empty poll, or a chaos redelivery, starts a back-off wait, which
// ends at once after a kick since the last one.
func (l *Listener) polled() {
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
	l.gen++
	l.waiting, l.live = true, true
	var t *timer
	if n := len(l.free); n > 0 {
		t, l.free = l.free[n-1], l.free[:n-1]
	} else {
		t = &timer{l: l}
		t.fire = t.expire
	}
	t.gen = l.gen
	l.k.After(l.interval, t.fire)
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

// end ends the current wait and queues its hop at this instant.
func (l *Listener) end() {
	l.live = false
	l.k.After(0, l.hopFn)
}

// hop follows the end of a wait, or stands in for a wait that a kick
// skipped. A kick resets the interval and a timeout doubles it, up to
// the cap. Then the listener polls again, or, once stop has completed,
// resumes its process with no message, to return.
func (l *Listener) hop() {
	l.waiting = false
	if l.kicked {
		l.kicked = false
		l.interval = minPoll
	} else {
		l.interval = min(l.interval*pollBackoff, l.maxPoll)
	}
	if l.stop.Done() {
		l.p.Unpark()
		return
	}
	l.poll()
}
