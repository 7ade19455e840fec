package queue

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"statebench/internal/sim"
)

// emptyPollTimes runs k to end in 1 ms steps and returns the instant of
// every empty poll q books on the way.
func emptyPollTimes(k *sim.Kernel, q *Queue, end time.Duration) []time.Duration {
	var at []time.Duration
	for t := time.Millisecond; t <= end; t += time.Millisecond {
		k.RunUntil(t)
		for int64(len(at)) < q.Stats().EmptyPolls {
			at = append(at, t)
		}
	}
	return at
}

func ms(vs ...int) []time.Duration {
	out := make([]time.Duration, len(vs))
	for i, v := range vs {
		out[i] = time.Duration(v) * time.Millisecond
	}
	return out
}

// listen starts a listener on q with a 1 s cap and returns it with its
// stop signal and a count of delivered messages.
func listen(k *sim.Kernel, q *Queue) (*Listener, *sim.Future[struct{}], *int) {
	l := NewListener(k)
	stop := sim.NewFuture[struct{}](k)
	delivered := new(int)
	k.Spawn("listener", func(p *sim.Proc) {
		l.Run(p, q, time.Second, stop, func(*Message) { *delivered++ })
	})
	return l, stop, delivered
}

func TestPollBacksOffExponentially(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	_, stop, delivered := listen(k, q)
	// Each poll takes 5 ms; the waits between them are 100, 200, 400
	// and 800 ms, then the 1 s cap.
	want := ms(5, 110, 315, 720, 1525, 2530, 3535)
	if got := emptyPollTimes(k, q, 4*time.Second); !slices.Equal(got, want) {
		t.Fatalf("empty polls at %v, want %v", got, want)
	}
	stop.Complete(struct{}{}, nil)
	k.Run()
	if *delivered != 0 {
		t.Fatalf("delivered %d messages from an empty queue", *delivered)
	}
}

func TestListenerResetsBackoff(t *testing.T) {
	cases := []struct {
		name  string
		setup func(t *testing.T, k *sim.Kernel, l *Listener, q *Queue)
		want  []time.Duration
		msgs  int
	}{{
		name:  "kick before run",
		setup: func(_ *testing.T, _ *sim.Kernel, l *Listener, _ *Queue) { l.Kick() },
		// The first wait returns at once.
		want: ms(5, 10, 115, 320, 725, 1530),
	}, {
		name:  "kick mid back-off",
		setup: func(_ *testing.T, k *sim.Kernel, l *Listener, _ *Queue) { k.At(time.Second, l.Kick) },
		// The 800 ms wait from 720 ms ends at the kick, and the
		// interval starts again at 100 ms.
		want: ms(5, 110, 315, 720, 1005, 1110, 1315, 1720),
	}, {
		name: "delivery",
		setup: func(t *testing.T, k *sim.Kernel, _ *Listener, q *Queue) {
			k.At(time.Second, func() {
				if err := q.EnqueueFromKernelCtx([]byte("m"), 1, sim.TraceContext{}); err != nil {
					t.Error(err)
				}
			})
		},
		// The message, visible at 1005 ms, is taken by the poll that
		// ends at 1525 ms; the next poll follows at once and the
		// interval starts again at 100 ms.
		want: ms(5, 110, 315, 720, 1530, 1635, 1840),
		msgs: 1,
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			q := New(k, "q", fixedParams())
			l, stop, delivered := listen(k, q)
			c.setup(t, k, l, q)
			if got := emptyPollTimes(k, q, 2*time.Second); !slices.Equal(got, c.want) {
				t.Errorf("empty polls at %v, want %v", got, c.want)
			}
			stop.Complete(struct{}{}, nil)
			k.Run()
			if *delivered != c.msgs {
				t.Errorf("delivered %d messages, want %d", *delivered, c.msgs)
			}
		})
	}
}

func TestPollStop(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	l := NewListener(k)
	stop := sim.NewFuture[struct{}](k)
	var returned time.Duration
	k.Spawn("listener", func(p *sim.Proc) {
		l.Run(p, q, time.Second, stop, func(*Message) {})
		returned = p.Now()
	})
	k.At(3*time.Second, func() { stop.Complete(struct{}{}, nil) })
	k.Run()
	// Stop lands in the wait from 2530 ms; the listener returns when
	// that wait ends, without polling again.
	if returned != 3530*time.Millisecond {
		t.Fatalf("Run returned at %v, want 3.53s", returned)
	}
	if n := q.Stats().EmptyPolls; n != 6 {
		t.Fatalf("empty polls = %d, want 6", n)
	}
}

// TestListenerWaitEndsAtInterval stops a listener during its first
// back-off wait: the wait still runs its full 100 ms, and the listener
// returns when it ends, without polling again.
func TestListenerWaitEndsAtInterval(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	l := NewListener(k)
	stop := sim.NewFuture[struct{}](k)
	var returned time.Duration
	k.Spawn("listener", func(p *sim.Proc) {
		l.Run(p, q, time.Second, stop, func(*Message) {})
		returned = p.Now()
	})
	k.At(50*time.Millisecond, func() { stop.Complete(struct{}{}, nil) })
	k.Run()
	if returned != 105*time.Millisecond || q.Stats().EmptyPolls != 1 {
		t.Fatalf("returned at %v after %d empty polls, want 105ms after 1", returned, q.Stats().EmptyPolls)
	}
	// The spawn, the stop, the timer and the hop after it. The poll
	// ends before the stop, the kernel's next event, so it runs ahead
	// of the clock, inside the spawn.
	if k.Executed() != 4 || k.LiveProcs() != 0 {
		t.Fatalf("Executed() = %d, LiveProcs() = %d; want 4, 0", k.Executed(), k.LiveProcs())
	}
}

// TestListenerKickEndsWaitEarly kicks a stopped listener 25 ms into its
// first 100 ms wait: it returns at the kick, and the timer the kick beat
// fires at 105 ms as a no-op.
func TestListenerKickEndsWaitEarly(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	l := NewListener(k)
	stop := sim.NewFuture[struct{}](k)
	var returned time.Duration
	k.Spawn("listener", func(p *sim.Proc) {
		l.Run(p, q, time.Second, stop, func(*Message) {})
		returned = p.Now()
	})
	k.At(30*time.Millisecond, func() {
		stop.Complete(struct{}{}, nil)
		l.Kick()
	})
	k.Run()
	if returned != 30*time.Millisecond || q.Stats().EmptyPolls != 1 {
		t.Fatalf("returned at %v after %d empty polls, want 30ms after 1", returned, q.Stats().EmptyPolls)
	}
	// The spawn, the kick, its wake-up and hop, and the beaten timer.
	// The poll ends before the kick, so it runs ahead of the clock.
	if k.Executed() != 5 || k.Now() != 105*time.Millisecond {
		t.Fatalf("Executed() = %d, clock %v; want 5, 105ms", k.Executed(), k.Now())
	}
}

// TestListenerTimedOutWaitsLeaveNoEvents lets four waits time out,
// then kicks the fifth: the kick schedules only the live wait's
// wake-up, beside that wait's own timer. A timed-out wait that left
// anything behind would add an event here.
func TestListenerTimedOutWaitsLeaveNoEvents(t *testing.T) {
	k := sim.NewKernel(1)
	q := New(k, "q", fixedParams())
	l := NewListener(k)
	stop := sim.NewFuture[struct{}](k)
	var returned time.Duration
	k.Spawn("listener", func(p *sim.Proc) {
		// A 100 ms cap: the polls end at 5, 110, 215, 320 and 425 ms.
		l.Run(p, q, 100*time.Millisecond, stop, func(*Message) {})
		returned = p.Now()
	})
	pending := -1
	k.At(480*time.Millisecond, func() {
		stop.Complete(struct{}{}, nil)
		l.Kick()
		pending = k.Pending()
	})
	k.Run()
	if pending != 2 {
		t.Fatalf("Pending() after the kick = %d, want 2", pending)
	}
	if returned != 480*time.Millisecond || q.Stats().EmptyPolls != 5 {
		t.Fatalf("returned at %v after %d empty polls, want 480ms after 5", returned, q.Stats().EmptyPolls)
	}
	// The spawn, the kick, its wake-up and hop, and the live wait's
	// timer firing as a no-op. The five polls, four timers and their
	// hops all fall before the kick, so they run ahead of the clock.
	if k.Executed() != 5 || k.Now() != 525*time.Millisecond {
		t.Fatalf("Executed() = %d, clock %v; want 5, 525ms", k.Executed(), k.Now())
	}
}

// idle starts n listeners, each on an empty queue of its own and capped
// at 1 s like the Durable task hub's, and returns their stop signal and
// queues.
func idle(k *sim.Kernel, n int) (*sim.Future[struct{}], []*Queue) {
	stop := sim.NewFuture[struct{}](k)
	var qs []*Queue
	for i := 0; i < n; i++ {
		q := New(k, fmt.Sprintf("idle-%d", i), DefaultParams())
		l := NewListener(k)
		k.Spawn(q.Name(), func(p *sim.Proc) { l.Run(p, q, time.Second, stop, func(*Message) {}) })
		qs = append(qs, q)
	}
	return stop, qs
}

// TestIdleSwitchesDoNotGrow pins that idle polling switches no
// goroutine and adds no event: four listeners idle for two virtual
// hours switch exactly as often as for one (their starts and the
// baton's return to RunUntil's caller), and execute as many events,
// while booking about twice the empty polls. Each listener runs its
// empty polls ahead of the clock up to RunUntil's deadline; the
// events are the four starts and the first poll's end of the three
// listeners that started while another's start was still due.
func TestIdleSwitchesDoNotGrow(t *testing.T) {
	var switches, events [2]uint64
	var polls [2]int64
	for i, d := range []time.Duration{time.Hour, 2 * time.Hour} {
		k := sim.NewKernel(1)
		stop, qs := idle(k, 4)
		k.RunUntil(d)
		switches[i], events[i] = k.Switches(), k.Executed()
		for _, q := range qs {
			polls[i] += q.Stats().EmptyPolls
		}
		stop.Complete(struct{}{}, nil)
		k.Run()
		if k.LiveProcs() != 0 {
			t.Fatalf("%d listeners still live after stop", k.LiveProcs())
		}
	}
	if switches[0] != switches[1] {
		t.Fatalf("Switches() = %d after 1 h and %d after 2 h idle; want equal", switches[0], switches[1])
	}
	if events[0] != 7 || events[1] != 7 {
		t.Fatalf("Executed() = %d after 1 h and %d after 2 h idle; want 7 and 7", events[0], events[1])
	}
	if polls[1] < 2*polls[0]-100 {
		t.Fatalf("%d empty polls after 1 h and %d after 2 h idle; want about twice", polls[0], polls[1])
	}
}

// BenchmarkIdleListeners runs four listeners idle for one virtual hour
// per op, the classic task hub's idle cost, and reports host time per
// empty poll (summed over the four queues), kernel events per op and
// goroutine switches per op.
func BenchmarkIdleListeners(b *testing.B) {
	b.ReportAllocs()
	var events, switches uint64
	var polls int64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(1)
		stop, qs := idle(k, 4)
		k.RunUntil(time.Hour)
		stop.Complete(struct{}{}, nil)
		k.Run()
		events += k.Executed()
		switches += k.Switches()
		for _, q := range qs {
			polls += q.Stats().EmptyPolls
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(polls), "ns/poll")
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
}
