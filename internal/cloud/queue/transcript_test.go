package queue

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/sim"
)

// transcriptFile holds the expected output of every transcript case.
const transcriptFile = "testdata/listener_transcript.txt"

// poller is the listener API the transcript cases drive: Listener, or
// the loop it is compared to (reference_test.go).
type poller interface {
	Kick()
	Run(p *sim.Proc, q *Queue, maxPoll time.Duration, stop *sim.Future[struct{}], handle func(*Message))
}

func newListener(k *sim.Kernel) poller { return NewListener(k) }

// rig is one transcript case: listeners on one kernel, each polling its
// own queue, and everything a run of them makes observable.
type rig struct {
	name string
	k    *sim.Kernel
	qs   []*Queue
	ls   []poller

	// polls[i] holds the instant of each of qs[i]'s empty polls. The
	// kernel's tick listener, called with a 1 ns period, runs before the
	// first event of every new instant, so the polls booked since the
	// previous call happened at the previous instant, last.
	polls [][]time.Duration
	seen  []int64
	last  time.Duration

	// delivered[i] lists listener i's deliveries as "id@instant".
	delivered [][]string
}

func newRig(seed uint64, newPoller func(*sim.Kernel) poller, params ...Params) *rig {
	r := &rig{k: sim.NewKernel(seed)}
	for i, p := range params {
		r.qs = append(r.qs, New(r.k, fmt.Sprintf("q%d", i), p))
		r.ls = append(r.ls, newPoller(r.k))
	}
	r.polls = make([][]time.Duration, len(params))
	r.seen = make([]int64, len(params))
	r.delivered = make([][]string, len(params))
	r.k.SetTickListener(time.Nanosecond, func(b time.Duration) {
		r.book()
		r.last = b
	})
	return r
}

// book attributes the empty polls booked since the last call to the
// instant last.
func (r *rig) book() {
	for i, q := range r.qs {
		for n := q.Stats().EmptyPolls; r.seen[i] < n; r.seen[i]++ {
			r.polls[i] = append(r.polls[i], r.last)
		}
	}
}

// stop returns a new stop signal that completes at t.
func (r *rig) stop(t time.Duration) *sim.Future[struct{}] {
	f := sim.NewFuture[struct{}](r.k)
	r.k.At(t, func() { f.Complete(struct{}{}, nil) })
	return f
}

// listen runs listener i on its queue until stop, recording each
// delivery before calling then (when non-nil) on the listener's process.
func (r *rig) listen(i int, maxPoll time.Duration, stop *sim.Future[struct{}], then func(p *sim.Proc, m *Message)) {
	r.k.Spawn(fmt.Sprintf("listener-%d", i), func(p *sim.Proc) {
		r.ls[i].Run(p, r.qs[i], maxPoll, stop, func(m *Message) {
			r.delivered[i] = append(r.delivered[i], fmt.Sprintf("%d@%v", m.ID, p.Now()))
			if then != nil {
				then(p, m)
			}
		})
	})
}

// enqueue makes body visible on queue i one operation latency after t,
// from event-loop context.
func (r *rig) enqueue(t *testing.T, i int, body string) func() {
	return func() {
		if err := r.qs[i].EnqueueFromKernelCtx([]byte(body), len(body), sim.TraceContext{}); err != nil {
			t.Error(err)
		}
	}
}

// named sets the case's name and returns r.
func (r *rig) named(name string) *rig {
	r.name = name
	return r
}

// run drains the kernel and renders the case's transcript.
func (r *rig) run() string {
	r.k.Run()
	r.book()
	var b strings.Builder
	fmt.Fprintf(&b, "== %s\n", r.name)
	for i, q := range r.qs {
		fmt.Fprintf(&b, "listener %d empty polls:", i)
		for _, at := range r.polls[i] {
			fmt.Fprintf(&b, " %v", at)
		}
		fmt.Fprintf(&b, "\nlistener %d delivered: %s\n", i, strings.Join(r.delivered[i], " "))
		fmt.Fprintf(&b, "listener %d stats: %+v\n", i, q.Stats())
	}
	fmt.Fprintf(&b, "kernel: executed %d, clock %v, live %d\n", r.k.Executed(), r.k.Now(), r.k.LiveProcs())
	return b.String()
}

// scriptedCases renders every scripted case (scriptedRigs).
func scriptedCases(t *testing.T, newPoller func(*sim.Kernel) poller) []func() string {
	var cases []func() string
	for _, c := range scriptedRigs(t, newPoller) {
		cases = append(cases, func() string { return c().run() })
	}
	return cases
}

// scriptedRigs set up the same-instant ties a listener must order
// exactly by (at, seq), each returning its rig before the run. With a
// 5 ms poll and a 1 s cap, an idle listener's polls end at 5, 110, 315,
// 720, 1525, 2530 ms, ...: its timers fire at 105, 310, 715, 1520, 2525
// ms and its poll checks follow 5 ms later.
func scriptedRigs(t *testing.T, newPoller func(*sim.Kernel) poller) []func() *rig {
	one := func() *rig { return newRig(1, newPoller, fixedParams()) }
	return []func() *rig{
		func() *rig {
			r := one()
			// Queued at set-up, the kick precedes the timer pushed at 5 ms.
			r.k.At(105*time.Millisecond, r.ls[0].Kick)
			r.listen(0, time.Second, r.stop(3*time.Second), nil)
			return r.named("kick at a timer's instant, queued before the timer")
		},
		func() *rig {
			r := one()
			// Queued at 50 ms, the kick follows the timer but precedes the
			// hop the timer pushes when it fires.
			r.k.At(50*time.Millisecond, func() { r.k.At(105*time.Millisecond, r.ls[0].Kick) })
			r.listen(0, time.Second, r.stop(3*time.Second), nil)
			return r.named("kick queued between a timer and its hop")
		},
		func() *rig {
			r := one()
			// Queued from the timer's instant, after the hop.
			r.k.At(50*time.Millisecond, func() {
				r.k.At(105*time.Millisecond, func() { r.k.After(0, r.ls[0].Kick) })
			})
			r.listen(0, time.Second, r.stop(3*time.Second), nil)
			return r.named("kick queued after a timer's hop")
		},
		func() *rig {
			r := one()
			// The kick ends the wait from 720 ms and the listener returns;
			// the timer it beat still fires at 1520 ms.
			stop := r.stop(time.Second)
			r.k.At(time.Second, r.ls[0].Kick)
			r.listen(0, time.Second, stop, nil)
			return r.named("stop then kick mid-wait: the beaten timer fires later")
		},
		func() *rig {
			r := one()
			// Queued at set-up, the enqueue runs before the timer at 105
			// ms, so its message is appended at 110 ms before the poll
			// check the hop pushes.
			r.k.At(105*time.Millisecond, r.enqueue(t, 0, "a"))
			r.listen(0, time.Second, r.stop(3*time.Second), nil)
			return r.named("enqueue visible at a poll-check instant, before the check")
		},
		func() *rig {
			r := one()
			// Queued after the hop, the append at 110 ms follows the
			// poll check, which finds the queue empty.
			r.k.At(50*time.Millisecond, func() {
				r.k.At(105*time.Millisecond, func() { r.k.After(0, r.enqueue(t, 0, "a")) })
			})
			r.listen(0, time.Second, r.stop(3*time.Second), nil)
			return r.named("enqueue visible at a poll-check instant, after the check")
		},
		func() *rig {
			r := one()
			// A producer process's enqueue ends at 310 ms, the instant of
			// the listener's second timer.
			r.k.Spawn("producer", func(p *sim.Proc) {
				p.Sleep(305 * time.Millisecond)
				if err := r.qs[0].Enqueue(p, []byte("p"), 1); err != nil {
					t.Error(err)
				}
			})
			r.listen(0, time.Second, r.stop(3*time.Second), nil)
			return r.named("enqueue from a process at a timer's instant")
		},
		func() *rig {
			r := one()
			r.listen(0, time.Second, r.stop(200*time.Millisecond), nil)
			return r.named("stop during a wait")
		},
		func() *rig {
			r := one()
			r.listen(0, time.Second, r.stop(107*time.Millisecond), nil)
			return r.named("stop during an empty poll")
		},
		func() *rig {
			r := one()
			r.k.At(100*time.Millisecond, r.enqueue(t, 0, "a"))
			r.listen(0, time.Second, r.stop(107*time.Millisecond), nil)
			return r.named("stop during a poll that delivers")
		},
		func() *rig {
			r := newRig(1, newPoller, chaosParams(0))
			r.qs[0].Chaos = chaos.NewInjector(r.k, &chaos.Plan{Rules: []chaos.Rule{
				{Component: "queue", Kind: chaos.Redeliver, Rate: 1, MaxFaults: 1},
			}})
			r.k.At(time.Second, r.enqueue(t, 0, "a"))
			r.listen(0, time.Second, r.stop(6*time.Second), nil)
			return r.named("chaos redelivery")
		},
		func() *rig {
			r := newRig(1, newPoller, chaosParams(0))
			r.qs[0].Chaos = chaos.NewInjector(r.k, &chaos.Plan{Rules: []chaos.Rule{
				{Component: "queue", Kind: chaos.Duplicate, Rate: 1, MaxFaults: 1},
			}})
			r.k.At(time.Second, r.enqueue(t, 0, "a"))
			r.listen(0, time.Second, r.stop(6*time.Second), nil)
			return r.named("chaos duplicate")
		},
		func() *rig {
			r := one()
			// The handler blocks for 50 ms; a kick during it makes the
			// wait after the next empty poll return at once.
			r.k.At(time.Second, r.enqueue(t, 0, "a"))
			r.k.At(1540*time.Millisecond, r.ls[0].Kick)
			r.listen(0, time.Second, r.stop(3*time.Second), func(p *sim.Proc, _ *Message) {
				p.Sleep(50 * time.Millisecond)
			})
			return r.named("kick while the handler blocks")
		},
		func() *rig {
			r := newRig(1, newPoller, fixedParams(), fixedParams())
			// Two listeners in lockstep, kicked by one event at a timer's
			// instant; the first handler kicks both listeners.
			stop := r.stop(2 * time.Second)
			r.k.At(310*time.Millisecond, func() { r.ls[1].Kick(); r.ls[0].Kick() })
			r.k.At(500*time.Millisecond, r.enqueue(t, 0, "a"))
			kickBoth := func(*sim.Proc, *Message) { r.ls[0].Kick(); r.ls[1].Kick() }
			r.listen(0, time.Second, stop, kickBoth)
			r.listen(1, time.Second, stop, nil)
			return r.named("two listeners kicked at one instant")
		},
	}
}

// randomCase renders the seeded schedule randomRig sets up.
func randomCase(t *testing.T, seed int64, newPoller func(*sim.Kernel) poller) string {
	return randomRig(t, seed, newPoller).run()
}

// randomRig sets up a seeded schedule of enqueues (from events and from
// a producer process), kicks and stops over 1-4 listeners on one
// kernel. Times fall on a 5 ms grid so that they often tie with the
// listeners' own events; each action is queued at set-up, from an
// earlier event, or from an event at its own instant, which orders it
// before or after events already queued for that instant.
func randomRig(t *testing.T, seed int64, newPoller func(*sim.Kernel) poller) *rig {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(4)
	params := make([]Params, n)
	for i := range params {
		if rng.Intn(2) == 0 {
			params[i] = chaosParams(3)
		} else {
			params[i] = DefaultParams()
			params[i].VisibilityTimeout = 2 * time.Second
		}
	}
	r := newRig(uint64(seed), newPoller, params...)
	if rng.Intn(2) == 0 {
		inj := chaos.NewInjector(r.k, &chaos.Plan{Rules: []chaos.Rule{
			{Component: "queue", Kind: chaos.Redeliver, Rate: 0.2},
			{Component: "queue", Kind: chaos.Duplicate, Rate: 0.1},
		}})
		for _, q := range r.qs {
			q.Chaos = inj
		}
	}
	grid := func(max int) time.Duration { return time.Duration(5*rng.Intn(max/5+1)) * time.Millisecond }
	stops := []*sim.Future[struct{}]{r.stop(6*time.Second + grid(5000)), r.stop(6*time.Second + grid(5000))}
	schedule := func(at time.Duration, act func()) {
		switch rng.Intn(3) {
		case 0:
			r.k.At(at, act)
		case 1:
			r.k.At(at-grid(int(at/time.Millisecond)), func() { r.k.At(at, act) })
		default:
			r.k.At(at, func() { r.k.After(0, act) })
		}
	}
	type produce struct {
		at   time.Duration
		q    int
		kick bool
	}
	var produced []produce
	for a := 0; a < 30; a++ {
		at, i := grid(8000), rng.Intn(n)
		switch rng.Intn(3) {
		case 0:
			schedule(at, r.enqueue(t, i, fmt.Sprintf("k%d", a)))
		case 1:
			schedule(at, r.ls[i].Kick)
		default:
			produced = append(produced, produce{at: at, q: i, kick: rng.Intn(2) == 0})
		}
	}
	r.k.Spawn("producer", func(p *sim.Proc) {
		for a, pr := range produced {
			if pr.at > p.Now() {
				p.Sleep(pr.at - p.Now())
			}
			body := []byte(fmt.Sprintf("p%d", a))
			if err := r.qs[pr.q].Enqueue(p, body, len(body)); err != nil {
				t.Error(err)
			}
			if pr.kick {
				r.ls[pr.q].Kick()
			}
		}
	})
	caps := []time.Duration{300 * time.Millisecond, time.Second, 2 * time.Second}
	for i := range r.ls {
		maxPoll, stop, kickAll := caps[rng.Intn(len(caps))], stops[rng.Intn(2)], rng.Intn(2) == 0
		r.listen(i, maxPoll, stop, func(p *sim.Proc, m *Message) {
			p.Sleep(time.Duration(m.ID%3) * 7 * time.Millisecond)
			if kickAll {
				for _, l := range r.ls {
					l.Kick()
				}
			}
		})
	}
	return r.named(fmt.Sprintf("random schedule, seed %d, %d listeners", seed, n))
}

// transcript renders every scripted case, then the random schedules.
func transcript(t *testing.T) string {
	var b strings.Builder
	for _, c := range scriptedCases(t, newListener) {
		b.WriteString(c())
	}
	for seed := int64(1); seed <= 24; seed++ {
		b.WriteString(randomCase(t, seed, newListener))
	}
	return b.String()
}

// TestListenerTranscript pins, for every scripted tie and seeded random
// schedule, each listener's empty-poll instants, delivered message IDs
// and instants and queue Stats, and the kernel's Executed count, final
// clock and LiveProcs. Any change to the listener that moves an event,
// reorders two events at one instant or changes a latency draw shows
// here as a changed line.
func TestListenerTranscript(t *testing.T) {
	want, err := os.ReadFile(transcriptFile)
	if err != nil {
		t.Fatal(err)
	}
	got := transcript(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("transcript differs from %s at line %d:\n got: %s\nwant: %s", transcriptFile, i+1, g, w)
		}
	}
}
