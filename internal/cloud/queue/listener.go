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
type Listener struct {
	k    *sim.Kernel
	kick *sim.Future[struct{}]
}

// NewListener returns an unkicked listener on k.
func NewListener(k *sim.Kernel) *Listener {
	return &Listener{k: k, kick: sim.NewFuture[struct{}](k)}
}

// Kick ends the listener's current back-off wait and resets its
// interval. A kick while the listener is not waiting makes its next
// wait return at once.
func (l *Listener) Kick() {
	if !l.kick.Done() {
		l.kick.Complete(struct{}{}, nil)
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
	interval := minPoll
	for !stop.Done() {
		if m, ok := q.TryDequeue(p); ok {
			interval = minPoll
			handle(m)
			continue
		}
		if _, _, kicked := l.kick.AwaitTimeout(p, interval); kicked {
			l.kick = sim.NewFuture[struct{}](l.k)
			interval = minPoll
		} else {
			interval = min(interval*pollBackoff, maxPoll)
		}
	}
}
