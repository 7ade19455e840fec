package queue

import (
	"testing"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/sim"
)

// drainFor dequeues until want messages were delivered or virtual time
// passes deadline, sleeping between empty polls so ghost copies have
// time to reappear.
func drainFor(p *sim.Proc, q *Queue, want int, deadline sim.Time) int {
	got := 0
	for got < want && p.Now() < deadline {
		if _, ok := q.TryDequeue(p); ok {
			got++
			continue
		}
		p.Sleep(500 * time.Millisecond)
	}
	return got
}

// TestDeliveredDuplicateBooksNoRecoveryDelay: a duplicated delivery
// SUCCEEDS — the consumer got the message and only the delete was lost
// — so its ghost copy is surplus traffic: every original and every
// ghost is delivered.
func TestDeliveredDuplicateBooksNoRecoveryDelay(t *testing.T) {
	k := sim.NewKernel(1)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Duplicate, Rate: 1, MaxFaults: 3},
	}})
	q := New(k, "dup", chaosParams(10))
	q.Chaos = inj
	var got int
	k.Spawn("driver", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := q.Enqueue(p, []byte{byte(i)}, 1); err != nil {
				t.Errorf("Enqueue: %v", err)
				return
			}
		}
		// 3 originals + 3 ghost copies after the 2s visibility timeout.
		got = drainFor(p, q, 6, sim.Time(30*time.Second))
	})
	k.Run()
	if got != 6 {
		t.Fatalf("delivered %d messages, want 6 (3 originals + 3 ghosts)", got)
	}
	if n := inj.Stats().Injected; n != 3 {
		t.Fatalf("duplicates = %d, want 3", n)
	}
}

// TestRecoveryDelayBookedForFailedDeliveries pins the other side: a
// genuine redelivery (the consumer crashed before acknowledging) makes
// the message wait out the full visibility timeout, so the consumer
// receives it only after one visibility timeout per failed attempt.
func TestRecoveryDelayBookedForFailedDeliveries(t *testing.T) {
	k := sim.NewKernel(1)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Redeliver, Rate: 1, MaxFaults: 2},
	}})
	q := New(k, "redeliver", chaosParams(10))
	q.Chaos = inj
	var got int
	var at sim.Time
	k.Spawn("driver", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("m"), 1); err != nil {
			t.Errorf("Enqueue: %v", err)
			return
		}
		got = drainFor(p, q, 1, sim.Time(30*time.Second))
		at = p.Now()
	})
	k.Run()
	if got != 1 {
		t.Fatalf("delivered %d messages, want 1", got)
	}
	st := inj.Stats()
	if st.Redeliveries != 2 {
		t.Fatalf("redeliveries = %d, want 2", st.Redeliveries)
	}
	// chaosParams sets a 2s visibility timeout, and the driver polls
	// every 500ms: two failed attempts delay delivery by two timeouts.
	if at < sim.Time(4*time.Second) || at >= sim.Time(5*time.Second) {
		t.Fatalf("delivered at %v, want within a poll of 4s (one visibility timeout per failed attempt)", at)
	}
}
