package sim

import (
	"testing"
	"time"
)

func TestTickListenerFiresAtBoundaries(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	k.SetTickListener(time.Second, func(b Time) { ticks = append(ticks, b) })
	for i := 1; i <= 4; i++ {
		k.At(Time(i)*time.Second+100*time.Millisecond, func() {})
	}
	k.Run()
	want := []Time{time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// An idle gap coalesces: the listener hears only the last boundary at
// or before the clock, not every skipped window.
func TestTickListenerCoalescesIdleGaps(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	k.SetTickListener(time.Second, func(b Time) { ticks = append(ticks, b) })
	k.At(500*time.Millisecond, func() {})
	k.At(10*time.Second, func() {}) // 9 boundaries skipped at once
	k.At(10500*time.Millisecond, func() {})
	k.Run()
	if len(ticks) != 1 || ticks[0] != 10*time.Second {
		t.Fatalf("ticks = %v, want [10s]", ticks)
	}
}

// The first tick fires at `every`, never at 0, and an event exactly on
// a boundary reports that boundary.
func TestTickListenerBoundaryExact(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	k.SetTickListener(time.Second, func(b Time) { ticks = append(ticks, b) })
	k.At(0, func() {})
	k.At(time.Second, func() {})
	k.Run()
	if len(ticks) != 1 || ticks[0] != time.Second {
		t.Fatalf("ticks = %v, want [1s]", ticks)
	}
}

func TestTickListenerRemoval(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.SetTickListener(time.Second, func(Time) { n++ })
	k.SetTickListener(0, nil)
	k.At(5*time.Second, func() {})
	k.Run()
	if n != 0 {
		t.Fatalf("removed listener fired %d times", n)
	}
}

// The listener is passive: attaching one must not change event order,
// timestamps, or the executed count — the determinism contract that
// lets telemetry ride along without perturbing results.
func TestTickListenerDoesNotPerturbRun(t *testing.T) {
	run := func(listen bool) ([]int, uint64, Time) {
		k := NewKernel(42)
		if listen {
			k.SetTickListener(time.Second, func(Time) {})
		}
		var order []int
		r := NewRNG(42)
		for i := 0; i < 200; i++ {
			i := i
			k.At(Time(r.Intn(int(30*time.Second))), func() { order = append(order, i) })
		}
		end := k.Run()
		return order, k.Executed(), end
	}
	base, baseExec, baseEnd := run(false)
	got, gotExec, gotEnd := run(true)
	if gotExec != baseExec || gotEnd != baseEnd {
		t.Fatalf("executed/end diverged: %d/%v vs %d/%v", gotExec, gotEnd, baseExec, baseEnd)
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("event order diverged at %d", i)
		}
	}
}

// Installing the listener mid-run (clock already past several
// boundaries) starts at the next boundary after now.
func TestTickListenerMidRunInstall(t *testing.T) {
	k := NewKernel(1)
	var ticks []Time
	k.At(5500*time.Millisecond, func() {
		k.SetTickListener(time.Second, func(b Time) { ticks = append(ticks, b) })
	})
	k.At(5700*time.Millisecond, func() {}) // before the next boundary
	k.At(6200*time.Millisecond, func() {})
	k.Run()
	if len(ticks) != 1 || ticks[0] != 6*time.Second {
		t.Fatalf("ticks = %v, want [6s]", ticks)
	}
}

// A Timers event that crosses a boundary reports it like any other
// event, before its handler runs.
func TestTickListenerSeesLaneEvents(t *testing.T) {
	k := NewKernel(1)
	var log []string
	k.SetTickListener(time.Second, func(b Time) { log = append(log, "tick "+b.String()) })
	tm := k.NewTimers(func(int64) { log = append(log, "lane "+k.Now().String()) })
	k.At(500*time.Millisecond, func() {})
	tm.At(1500*time.Millisecond, 0)
	tm.At(1700*time.Millisecond, 0)
	tm.At(3200*time.Millisecond, 0)
	k.Run()
	want := []string{"tick 1s", "lane 1.5s", "lane 1.7s", "tick 3s", "lane 3.2s"}
	if len(log) != len(want) {
		t.Fatalf("log = %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

// RunUntil can move the clock past the tick listener's next boundary
// without running an event; the boundary stays behind until an event
// crosses it, but Horizon never reports an instant before the clock.
func TestHorizonNeverBeforeClock(t *testing.T) {
	k := NewKernel(1)
	k.SetTickListener(10*time.Millisecond, func(Time) {})
	k.At(100*time.Millisecond, func() {})
	k.RunUntil(50 * time.Millisecond)
	if now, h := k.Now(), k.Horizon(); now != 50*time.Millisecond || h < now {
		t.Fatalf("after RunUntil(50ms): Now() = %v, Horizon() = %v; want 50ms and a horizon at or after it", now, h)
	}
	k.Run()
}
