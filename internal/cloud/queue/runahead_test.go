package queue

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"
)

// probeSpacings are the intervals between aheadRun's probes, all on
// the rigs' 5 ms grid; 0 queues none, and 100 s is longer than every
// run.
var probeSpacings = []time.Duration{0, 5 * time.Millisecond, 105 * time.Millisecond, 1005 * time.Millisecond, 2525 * time.Millisecond, 100 * time.Second}

// probeEnd is the last instant at which aheadRun queues a probe, past
// the end of every rig's listeners.
const probeEnd = 16 * time.Second

// aheadRun is what a run of a rig without its 1 ns tick listener makes
// observable: every listener's deliveries and final stats, the final
// clock and live processes, and the probes' EmptyPolls readings. That
// tick listener stopped every run-ahead at the next nanosecond; without
// it, Listener runs its idle polls ahead up to the next event.
type aheadRun struct {
	text     string
	probes   []int64
	executed uint64
}

// runAhead queues a probe every `every` up to probeEnd (at least one;
// none when every is 0), replaces r's tick listener with one whose
// boundaries fall off the probes' grid, 1.4 every + 1 ms apart (none
// when every is 0), and drains the kernel. Each probe and each tick
// records every queue's EmptyPolls, the tick after its boundary. The
// probes are queued in turn in the rig's three ways, starting at the
// way numbered way: at set-up, from an earlier event, and from an
// event at their own instant, so that they run before and after
// listener events at the same instant.
func runAhead(r *rig, every time.Duration, way int) aheadRun {
	var out aheadRun
	r.k.SetTickListener(0, nil)
	if every > 0 {
		probe := func() {
			for _, q := range r.qs {
				out.probes = append(out.probes, q.Stats().EmptyPolls)
			}
		}
		r.k.SetTickListener(every*7/5+time.Millisecond, func(b time.Duration) {
			out.probes = append(out.probes, int64(b))
			probe()
		})
		rng := rand.New(rand.NewSource(int64(every)))
		for at := every; at == every || at <= probeEnd; at += every {
			switch way % 3 {
			case 0:
				r.k.At(at, probe)
			case 1:
				earlier := time.Duration(5*rng.Int63n(int64(at/(5*time.Millisecond)))) * time.Millisecond
				r.k.At(earlier, func() { r.k.At(at, probe) })
			default:
				r.k.At(at, func() { r.k.After(0, probe) })
			}
			way++
		}
	}
	r.k.Run()
	var b strings.Builder
	for i, q := range r.qs {
		fmt.Fprintf(&b, "listener %d delivered: %s\n", i, strings.Join(r.delivered[i], " "))
		fmt.Fprintf(&b, "listener %d stats: %+v\n", i, q.Stats())
	}
	fmt.Fprintf(&b, "kernel: clock %v, live %d\n", r.k.Now(), r.k.LiveProcs())
	out.text, out.executed = b.String(), r.k.Executed()
	return out
}

// compareAhead fails t if got and want differ, naming the case.
func compareAhead(t *testing.T, name string, every time.Duration, got, want aheadRun) {
	t.Helper()
	if got.text != want.text {
		t.Fatalf("%s, probes every %v:\n got:\n%s\nwant:\n%s", name, every, got.text, want.text)
	}
	if !slices.Equal(got.probes, want.probes) {
		i := 0
		for i < len(got.probes) && i < len(want.probes) && got.probes[i] == want.probes[i] {
			i++
		}
		t.Fatalf("%s, probes every %v: %d and %d readings, first difference at reading %d", name, every, len(got.probes), len(want.probes), i)
	}
}

// TestListenerRunAheadMatchesLoop runs every scripted case and the
// seeded schedules of TestListenerMatchesLoop without the rig's 1 ns
// tick listener, so that Listener runs idle polls ahead of the kernel
// clock, with probe events and a tick listener reading every queue's
// EmptyPolls at several spacings. It requires the deliveries, final
// stats, readings, final clock and live processes of the loop
// reference, whose every step is an event; and, without probes, fewer
// events than the loop on every scripted case, each of which idles:
// the run-ahead ran.
func TestListenerRunAheadMatchesLoop(t *testing.T) {
	n := len(scriptedRigs(t, newLoopListener))
	for i := 0; i < n; i++ {
		for s, every := range probeSpacings {
			want := runAhead(scriptedRigs(t, newLoopListener)[i](), every, i+s)
			r := scriptedRigs(t, newListener)[i]()
			got := runAhead(r, every, i+s)
			compareAhead(t, r.name, every, got, want)
			if every == 0 && got.executed >= want.executed {
				t.Errorf("%s: Listener executed %d events, the loop %d; want fewer", r.name, got.executed, want.executed)
			}
		}
	}
	for seed := int64(1); seed <= 300; seed++ {
		for s, every := range probeSpacings {
			want := runAhead(randomRig(t, seed, newLoopListener), every, int(seed)+s)
			r := randomRig(t, seed, newListener)
			compareAhead(t, r.name, every, runAhead(r, every, int(seed)+s), want)
		}
	}
}
