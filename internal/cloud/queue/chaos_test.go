package queue

import (
	"fmt"
	"testing"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/sim"
)

func chaosParams(maxDequeue int) Params {
	p := fixedParams()
	p.MaxPayload = 0
	p.VisibilityTimeout = 2 * time.Second
	p.MaxDequeueCount = maxDequeue
	return p
}

// TestAtLeastOnceProperty is the satellite property test: under any
// seeded fault schedule mixing redelivery and duplicates, with
// dead-lettering enabled, every enqueued message is eventually either
// delivered at least once or dead-lettered — none are lost — and
// virtual time never moves backward.
func TestAtLeastOnceProperty(t *testing.T) {
	const msgs = 40
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			k := sim.NewKernel(seed)
			inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
				{Component: "queue", Kind: chaos.Redeliver, Rate: 0.3},
				{Component: "queue", Kind: chaos.Duplicate, Rate: 0.2},
			}})
			q := New(k, "prop", chaosParams(4))
			q.Chaos = inj

			seen := map[int64]int{}
			lastNow := sim.Time(0)
			// all holds every enqueued message. One never delivered
			// whose attempts are exhausted was dead-lettered: a failed
			// attempt at MaxDequeueCount poisons it, and nothing
			// brings it back.
			var all []*Message
			deadLettered := func() int {
				n := 0
				for _, m := range all {
					if seen[m.ID] == 0 && m.Dequeues >= 4 {
						n++
					}
				}
				return n
			}
			k.Spawn("driver", func(p *sim.Proc) {
				for i := 0; i < msgs; i++ {
					if err := q.Enqueue(p, []byte{byte(i)}); err != nil {
						t.Errorf("Enqueue: %v", err)
						return
					}
				}
				all = append(all, q.msgs...)
				for len(seen)+deadLettered() < msgs {
					if p.Now() < lastNow {
						t.Error("virtual time went backward")
						return
					}
					lastNow = p.Now()
					m, ok := q.TryDequeue(p)
					if !ok {
						p.Sleep(500 * time.Millisecond)
						continue
					}
					seen[m.ID]++
				}
			})
			k.Run()

			if len(all) != msgs {
				t.Fatalf("%d messages enqueued, want %d", len(all), msgs)
			}
			if got := len(seen) + deadLettered(); got != msgs {
				t.Fatalf("%d of %d messages accounted for (delivered or dead-lettered)", got, msgs)
			}
			st := q.Stats()
			if int(st.DeadLettered) < deadLettered() {
				t.Fatalf("queue dead-lettered %d messages, but %d were never delivered", st.DeadLettered, deadLettered())
			}
			if st.Redeliveries > 0 && inj.Stats().Redeliveries == 0 {
				t.Fatal("queue booked redeliveries the injector never injected")
			}
		})
	}
}

// TestPoisonMessageDeadLetters forces every delivery attempt to fail:
// the message must dead-letter after exactly MaxDequeueCount attempts
// and never be delivered.
func TestPoisonMessageDeadLetters(t *testing.T) {
	k := sim.NewKernel(1)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Redeliver, Rate: 1},
	}})
	q := New(k, "poison", chaosParams(3))
	q.Chaos = inj
	delivered := 0
	var poison *Message
	k.Spawn("driver", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("bad")); err != nil {
			t.Errorf("Enqueue: %v", err)
			return
		}
		poison = q.msgs[0]
		for i := 0; i < 20 && q.Stats().DeadLettered == 0; i++ {
			if _, ok := q.TryDequeue(p); ok {
				delivered++
			}
			p.Sleep(3 * time.Second)
		}
	})
	k.Run()
	if delivered != 0 {
		t.Fatalf("poison message was delivered %d times", delivered)
	}
	if len(q.msgs) != 0 {
		t.Fatal("poison message still queued")
	}
	if poison.Dequeues != 3 {
		t.Fatalf("poison message dead-lettered after %d attempts, want MaxDequeueCount=3", poison.Dequeues)
	}
	st := q.Stats()
	if st.DeadLettered != 1 || st.Redeliveries != 3 || st.Dequeues != 0 {
		t.Fatalf("stats = %+v, want 3 redeliveries, 1 dead-letter, 0 dequeues", st)
	}
	if inj.Stats().DeadLetters != 1 {
		t.Fatalf("injector booked %d dead letters, want 1", inj.Stats().DeadLetters)
	}
}

// TestUnlimitedRedeliveryNeverPoisons covers MaxDequeueCount = 0 (the
// Durable control-queue setting): a failing message keeps reappearing
// and is eventually delivered once the fault rule's budget runs out.
func TestUnlimitedRedeliveryNeverPoisons(t *testing.T) {
	k := sim.NewKernel(1)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Redeliver, Rate: 1, MaxFaults: 7},
	}})
	q := New(k, "ctrl", chaosParams(0))
	q.Chaos = inj
	delivered := 0
	k.Spawn("driver", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("msg")); err != nil {
			t.Errorf("Enqueue: %v", err)
			return
		}
		for i := 0; i < 40 && delivered == 0; i++ {
			if _, ok := q.TryDequeue(p); ok {
				delivered++
			}
			p.Sleep(3 * time.Second)
		}
	})
	k.Run()
	if delivered != 1 {
		t.Fatalf("message delivered %d times, want 1 after redelivery budget drained", delivered)
	}
	if q.Stats().DeadLettered != 0 {
		t.Fatal("MaxDequeueCount=0 queue dead-lettered a message")
	}
	if q.Stats().Redeliveries != 7 {
		t.Fatalf("redeliveries = %d, want 7", q.Stats().Redeliveries)
	}
}

// TestTransactionsCountsChaosOps is the satellite regression test for
// Stats.Transactions: redelivered attempts bill their get and
// dead-letter moves bill put+delete, on top of the classic
// enqueue + 2*dequeue + empty-poll formula.
func TestTransactionsCountsChaosOps(t *testing.T) {
	k := sim.NewKernel(1)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Redeliver, Rate: 1, MaxFaults: 2},
	}})
	q := New(k, "bill", chaosParams(2))
	q.Chaos = inj
	k.Spawn("driver", func(p *sim.Proc) {
		// Message 1 fails twice and dead-letters (MaxDequeueCount=2);
		// message 2 is enqueued after the fault budget is drained and
		// delivers cleanly.
		if err := q.Enqueue(p, []byte("poison")); err != nil {
			t.Errorf("Enqueue: %v", err)
			return
		}
		for i := 0; i < 10 && q.Stats().DeadLettered == 0; i++ {
			if _, ok := q.TryDequeue(p); ok {
				t.Error("poison message was delivered")
			}
			p.Sleep(3 * time.Second)
		}
		if err := q.Enqueue(p, []byte("clean")); err != nil {
			t.Errorf("Enqueue: %v", err)
			return
		}
		if _, ok := q.TryDequeue(p); !ok {
			t.Error("clean message not delivered")
		}
		// One final empty poll for the formula's EmptyPolls term.
		if _, ok := q.TryDequeue(p); ok {
			t.Error("queue should be empty")
		}
	})
	k.Run()
	st := q.Stats()
	if st.Enqueues != 2 || st.Dequeues != 1 || st.Redeliveries != 2 || st.DeadLettered != 1 || st.EmptyPolls != 1 {
		t.Fatalf("stats = %+v, want 2 enqueues, 1 dequeue, 1 empty poll, 2 redeliveries, 1 dead-letter", st)
	}
	want := st.Enqueues + 2*st.Dequeues + st.EmptyPolls + st.Redeliveries + 2*st.DeadLettered
	if got := st.Transactions(); got != want {
		t.Fatalf("Transactions() = %d, want %d", got, want)
	}
	// The chaos terms must actually contribute: recompute without them.
	withoutChaos := st.Enqueues + 2*st.Dequeues + st.EmptyPolls
	if st.Transactions() == withoutChaos {
		t.Fatal("Transactions() ignores redeliveries and dead-letter moves")
	}
}

// TestDuplicateDeliveryGhost verifies a Duplicate fault delivers the
// message normally and redelivers the same message later.
func TestDuplicateDeliveryGhost(t *testing.T) {
	k := sim.NewKernel(1)
	inj := chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{
		{Component: "queue", Kind: chaos.Duplicate, Rate: 1, MaxFaults: 1},
	}})
	q := New(k, "dup", chaosParams(5))
	q.Chaos = inj
	var ids []int64
	k.Spawn("driver", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("m")); err != nil {
			t.Errorf("Enqueue: %v", err)
			return
		}
		for i := 0; i < 10 && len(ids) < 2; i++ {
			if m, ok := q.TryDequeue(p); ok {
				ids = append(ids, m.ID)
			}
			p.Sleep(3 * time.Second)
		}
	})
	k.Run()
	if len(ids) != 2 || ids[0] != ids[1] {
		t.Fatalf("deliveries = %v, want the same message twice", ids)
	}
	if st := q.Stats(); st.Dequeues != 2 {
		t.Fatalf("dequeues = %d, want 2 (original + ghost)", st.Dequeues)
	}
	if n := inj.Stats().Injected; n != 1 {
		t.Fatalf("injector duplicates = %d, want 1", n)
	}
}
