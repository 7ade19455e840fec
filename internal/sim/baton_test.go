package sim

import (
	"testing"
	"time"
)

// TestLoneSleeperResumesInPlace pins Switches for one process sleeping
// in a loop: each wake-up is an event the process dispatches itself, so
// the loop switches no goroutine. The run pays two switches, the start
// and the return to Run's caller.
func TestLoneSleeperResumesInPlace(t *testing.T) {
	k := NewKernel(1)
	const n = 1000
	var inLoop uint64
	k.Spawn("sleeper", func(p *Proc) {
		before := k.Switches()
		for i := 0; i < n; i++ {
			p.Sleep(time.Millisecond)
		}
		inLoop = k.Switches() - before
	})
	k.Run()
	if inLoop != 0 {
		t.Fatalf("sleep loop switched %d times, want 0", inLoop)
	}
	if k.Switches() != 2 || k.Executed() != n+1 {
		t.Fatalf("Switches() = %d, Executed() = %d; want 2, %d", k.Switches(), k.Executed(), n+1)
	}
}

// TestTakingTurnsSwitchesOncePerTurn pins Switches for two processes
// that alternate: every turn begins with exactly one switch.
func TestTakingTurnsSwitchesOncePerTurn(t *testing.T) {
	k := NewKernel(1)
	const n = 1000
	var order []string
	for i, name := range []string{"a", "b"} {
		name := name
		k.SpawnAfter(time.Duration(i)*time.Millisecond, name, func(p *Proc) {
			for j := 0; j < n; j++ {
				order = append(order, name)
				p.Sleep(2 * time.Millisecond)
			}
		})
	}
	k.Run()
	for i, name := range order {
		if want := []string{"a", "b"}[i%2]; name != want {
			t.Fatalf("turn %d ran %s, want %s", i, name, want)
		}
	}
	// 2n+2 turns (two starts, n wake-ups each), then the return to
	// Run's caller.
	if got, want := k.Switches(), uint64(2*n+3); got != want {
		t.Fatalf("Switches() = %d, want %d", got, want)
	}
	if got, want := k.Executed(), uint64(2*n+2); got != want {
		t.Fatalf("Executed() = %d, want %d", got, want)
	}
}

// TestDeadlineReachedInsideProc cuts a run at a deadline that the
// sleeping process's own event loop reaches: RunUntil must return to
// its caller with the process parked, and the next Run must resume it.
func TestDeadlineReachedInsideProc(t *testing.T) {
	k := NewKernel(1)
	var marks []Time
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(10 * time.Second)
			marks = append(marks, p.Now())
		}
	})
	if end := k.RunUntil(15 * time.Second); end != 15*time.Second {
		t.Fatalf("RunUntil returned %v, want 15s", end)
	}
	if len(marks) != 1 || k.LiveProcs() != 1 || k.Pending() != 1 {
		t.Fatalf("at deadline: marks %v, live %d, pending %d; want 1 mark, 1 live, 1 pending",
			marks, k.LiveProcs(), k.Pending())
	}
	if end := k.Run(); end != 30*time.Second {
		t.Fatalf("Run returned %v, want 30s", end)
	}
	if len(marks) != 3 || marks[2] != 30*time.Second || k.LiveProcs() != 0 {
		t.Fatalf("after Run: marks %v, live %d", marks, k.LiveProcs())
	}
}

// TestStopReachedInsideProc stops the run from an event that a parked
// process dispatches: Run must return to its caller at the stop, and
// the process stays parked, since Stop is final.
func TestStopReachedInsideProc(t *testing.T) {
	k := NewKernel(1)
	wakes := 0
	k.Spawn("poller", func(p *Proc) {
		k.After(5*time.Second, k.Stop)
		for {
			p.Sleep(2 * time.Second)
			wakes++
		}
	})
	if end := k.Run(); end != 5*time.Second {
		t.Fatalf("Run returned %v, want 5s", end)
	}
	if wakes != 2 || k.LiveProcs() != 1 || k.Pending() != 1 {
		t.Fatalf("after Stop: wakes %d, live %d, pending %d; want 2, 1, 1", wakes, k.LiveProcs(), k.Pending())
	}
	if end := k.Run(); end != 5*time.Second || wakes != 2 {
		t.Fatalf("Run after Stop advanced to %v with %d wakes", end, wakes)
	}
}

// TestExitingProcPassesBaton ends a process while events and another
// process are pending: the exiting goroutine dispatches the event
// itself, then hands the baton to the other process.
func TestExitingProcPassesBaton(t *testing.T) {
	k := NewKernel(1)
	var log []string
	k.Spawn("short", func(p *Proc) {
		p.Sleep(time.Second)
		log = append(log, "short")
	})
	k.Spawn("long", func(p *Proc) {
		p.Sleep(3 * time.Second)
		log = append(log, "long")
	})
	liveAt2 := -1
	k.At(2*time.Second, func() {
		log = append(log, "event")
		liveAt2 = k.LiveProcs()
	})
	k.Run()
	if len(log) != 3 || log[0] != "short" || log[1] != "event" || log[2] != "long" {
		t.Fatalf("log = %v, want [short event long]", log)
	}
	if liveAt2 != 1 || k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d at 2s and %d at the end, want 1 and 0", liveAt2, k.LiveProcs())
	}
	// Run's caller to short, short to long, long to short, short (on
	// exit) to long, long (on exit) back to Run's caller.
	if k.Switches() != 5 {
		t.Fatalf("Switches() = %d, want 5", k.Switches())
	}
}

// TestTimedOutWaitsLeaveNoEvents times out n awaits on one future, then
// completes it: Complete schedules the live waiter's wake-up only. An
// entry left behind by a timed-out wait would cost a no-op event each.
func TestTimedOutWaitsLeaveNoEvents(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	const n = 5
	timeouts, got := 0, 0
	k.Spawn("poller", func(p *Proc) {
		for {
			v, _, ok := f.AwaitTimeout(p, time.Second)
			if ok {
				got = v
				return
			}
			timeouts++
		}
	})
	pending := -1
	k.At(n*time.Second+time.Second/2, func() {
		f.Complete(7, nil)
		pending = k.Pending()
	})
	k.Run()
	if timeouts != n || got != 7 {
		t.Fatalf("timeouts %d, value %d; want %d, 7", timeouts, got, n)
	}
	// The live waiter's wake-up and its own unexpired timer.
	if pending != 2 {
		t.Fatalf("Pending() after Complete = %d, want 2", pending)
	}
	// Spawn, a timer and an unpark per timeout, the kick, the live
	// waiter's wake-up and unpark, and the last timer firing as a no-op.
	if got, want := k.Executed(), uint64(1+2*n+4); got != want {
		t.Fatalf("Executed() = %d, want %d", got, want)
	}
}
