package queue

import (
	"testing"
	"time"

	"statebench/internal/sim"
)

// loopListener is the listener as a loop on its own process, kept as
// the reference that Listener's callbacks must match event for event.
// Every wake-up resumes the process: the poll's end through
// TryDequeue's sleep, and a wait's end through a conditional wake-up,
// queued by the timer or by a kick, that resumes the process with a
// hop event if the wait is still the current one.
type loopListener struct {
	k *sim.Kernel
	p *sim.Proc
	// kicked: a kick since the last wait ended. entry: a wait a kick
	// would end is registered, with generation entryGen; gen counts the
	// waits that have ended.
	kicked, entry bool
	gen, entryGen uint64
}

func newLoopListener(k *sim.Kernel) poller { return &loopListener{k: k} }

func (l *loopListener) Kick() {
	if l.kicked {
		return
	}
	l.kicked = true
	if l.entry {
		l.entry = false
		l.wake(0, l.entryGen)
	}
}

// wake queues the end of wait gen d from now; it is a no-op if that
// wait has already ended.
func (l *loopListener) wake(d time.Duration, gen uint64) {
	l.k.After(d, func() {
		if l.gen == gen {
			l.gen++
			l.k.After(0, l.p.Unpark)
		}
	})
}

func (l *loopListener) Run(p *sim.Proc, q *Queue, maxPoll time.Duration, stop *sim.Future[struct{}], handle func(*Message)) {
	if maxPoll <= 0 {
		maxPoll = defaultMaxPoll
	}
	l.p = p
	interval := minPoll
	for !stop.Done() {
		if m, ok := q.TryDequeue(p); ok {
			interval = minPoll
			handle(m)
			continue
		}
		if !l.kicked {
			l.entry, l.entryGen = true, l.gen
			l.wake(interval, l.gen)
			p.Park()
			l.entry = false
		}
		if l.kicked {
			l.kicked = false
			interval = minPoll
		} else {
			interval = min(interval*pollBackoff, maxPoll)
		}
	}
}

// TestListenerMatchesLoop runs every scripted case and 300 seeded
// random schedules on Listener and on the loop reference, and requires
// identical transcripts: the same empty-poll instants, deliveries,
// stats, event count, final clock and live processes.
func TestListenerMatchesLoop(t *testing.T) {
	loop, cb := scriptedCases(t, newLoopListener), scriptedCases(t, newListener)
	for i := range loop {
		if want, got := loop[i](), cb[i](); got != want {
			t.Fatalf("scripted case %d differs:\n got: %s\nwant: %s", i, got, want)
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		if want, got := randomCase(t, seed, newLoopListener), randomCase(t, seed, newListener); got != want {
			t.Fatalf("seed %d differs:\n got: %s\nwant: %s", seed, got, want)
		}
	}
}
