package queue

import (
	"errors"
	"testing"
	"time"

	"statebench/internal/sim"
)

func fixedParams() Params {
	return Params{
		OpLatency:  sim.Fixed{D: 5 * time.Millisecond},
		MaxPayload: 100,
	}
}

func TestEnqueueDequeueFIFO(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	var got []string
	k.Spawn("c", func(p *sim.Proc) {
		for _, s := range []string{"a", "b", "c"} {
			if err := q.Enqueue(p, []byte(s), len(s)); err != nil {
				t.Errorf("Enqueue: %v", err)
			}
		}
		for i := 0; i < 3; i++ {
			m, ok := q.TryDequeue(p)
			if !ok {
				t.Error("TryDequeue empty")
				return
			}
			got = append(got, string(m.Body.([]byte)))
		}
	})
	k.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("got %v", got)
	}
}

func TestPayloadLimit(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	var err error
	k.Spawn("c", func(p *sim.Proc) { err = q.Enqueue(p, make([]byte, 101), 101) })
	k.Run()
	var tooBig *PayloadTooLargeError
	if !errors.As(err, &tooBig) {
		t.Fatalf("err = %v, want PayloadTooLargeError", err)
	}
	if tooBig.Size != 101 || tooBig.Limit != 100 {
		t.Fatalf("error detail = %+v", tooBig)
	}
	if q.Len() != 0 {
		t.Fatal("oversized message was enqueued")
	}
}

func TestEmptyPollsAreMetered(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	k.Spawn("c", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if _, ok := q.TryDequeue(p); ok {
				t.Error("dequeued from empty queue")
			}
		}
	})
	k.Run()
	st := q.Stats()
	if st.EmptyPolls != 5 {
		t.Fatalf("empty polls = %d, want 5", st.EmptyPolls)
	}
	if st.Transactions() != 5 {
		t.Fatalf("transactions = %d, want 5 (idle polling is billable)", st.Transactions())
	}
}

func TestTransactionAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	k.Spawn("c", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("x"), 1); err != nil {
			t.Errorf("Enqueue: %v", err)
		}
		if _, ok := q.TryDequeue(p); !ok {
			t.Error("dequeue failed")
		}
	})
	k.Run()
	st := q.Stats()
	// 1 enqueue + 2 (get+delete) for the dequeue.
	if st.Transactions() != 3 {
		t.Fatalf("transactions = %d, want 3", st.Transactions())
	}
}

func TestMessageMetadata(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	k.Spawn("c", func(p *sim.Proc) {
		if err := q.Enqueue(p, []byte("x"), 1); err != nil {
			t.Errorf("enqueue: %v", err)
		}
		enqueuedAt := p.Now()
		p.Sleep(2 * time.Second)
		m, _ := q.TryDequeue(p)
		if m.EnqueuedAt != enqueuedAt {
			t.Errorf("EnqueuedAt = %v, want %v", m.EnqueuedAt, enqueuedAt)
		}
		if m.Dequeues != 1 {
			t.Errorf("Dequeues = %d", m.Dequeues)
		}
	})
	k.Run()
}
