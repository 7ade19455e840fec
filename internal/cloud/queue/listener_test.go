package queue

import (
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
				if err := q.EnqueueFromKernel([]byte("m")); err != nil {
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
