package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var got []int
	k.At(3*time.Second, func() { got = append(got, 3) })
	k.At(1*time.Second, func() { got = append(got, 1) })
	k.At(2*time.Second, func() { got = append(got, 2) })
	end := k.Run()
	if end != 3*time.Second {
		t.Fatalf("end time = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	k := NewKernel(1)
	var at time.Duration
	k.At(5*time.Second, func() {
		k.At(time.Second, func() { at = k.Now() })
	})
	k.Run()
	if at != 5*time.Second {
		t.Fatalf("past event ran at %v, want clamped to 5s", at)
	}
}

func TestAfterNegativeClampsToZero(t *testing.T) {
	k := NewKernel(1)
	ran := false
	k.After(-time.Second, func() { ran = true })
	if k.Run() != 0 {
		t.Fatal("negative After should run at t=0")
	}
	if !ran {
		t.Fatal("event did not run")
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []time.Duration
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 5 * time.Second} {
		d := d
		k.At(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(3 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events before deadline", fired)
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want deadline 3s", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", k.Pending())
	}
	k.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event never ran")
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel(1)
	var marks []time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		marks = append(marks, p.Now())
		p.Sleep(10 * time.Second)
		marks = append(marks, p.Now())
		p.Sleep(5 * time.Second)
		marks = append(marks, p.Now())
	})
	k.Run()
	want := []time.Duration{0, 10 * time.Second, 15 * time.Second}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestSpawnAfter(t *testing.T) {
	k := NewKernel(1)
	var start time.Duration = -1
	k.SpawnAfter(7*time.Second, "late", func(p *Proc) { start = p.Now() })
	k.Run()
	if start != 7*time.Second {
		t.Fatalf("proc started at %v, want 7s", start)
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		k := NewKernel(42)
		var log []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			k.Spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					log = append(log, name)
					p.Sleep(time.Second)
				}
			})
		}
		k.Run()
		return log
	}
	first := run()
	for trial := 0; trial < 5; trial++ {
		again := run()
		if len(again) != len(first) {
			t.Fatal("nondeterministic length")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatalf("nondeterministic interleaving at %d: %v vs %v", i, first, again)
			}
		}
	}
	// Same-instant procs run in spawn order.
	if first[0] != "a" || first[1] != "b" || first[2] != "c" {
		t.Fatalf("spawn order not FIFO: %v", first)
	}
}

func TestFutureCompleteBeforeAwait(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	f.Complete(42, nil)
	var got int
	k.Spawn("reader", func(p *Proc) { got, _ = f.Await(p) })
	k.Run()
	if got != 42 {
		t.Fatalf("got %d, want 42", got)
	}
}

func TestFutureAwaitBlocksUntilComplete(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[string](k)
	var got string
	var at time.Duration
	k.Spawn("reader", func(p *Proc) {
		got, _ = f.Await(p)
		at = p.Now()
	})
	k.At(9*time.Second, func() { f.Complete("done", nil) })
	k.Run()
	if got != "done" || at != 9*time.Second {
		t.Fatalf("got %q at %v, want done at 9s", got, at)
	}
}

func TestFutureMultipleWaiters(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	total := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", func(p *Proc) {
			v, _ := f.Await(p)
			total += v
		})
	}
	k.At(time.Second, func() { f.Complete(5, nil) })
	k.Run()
	if total != 20 {
		t.Fatalf("total = %d, want 20", total)
	}
}

func TestFutureDoubleCompletePanics(t *testing.T) {
	k := NewKernel(1)
	f := NewFuture[int](k)
	f.Complete(1, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on double complete")
		}
	}()
	f.Complete(2, nil)
}

func TestAwaitAllOrderAndError(t *testing.T) {
	k := NewKernel(1)
	fs := []*Future[int]{NewFuture[int](k), NewFuture[int](k), NewFuture[int](k)}
	var got []int
	k.Spawn("fanin", func(p *Proc) { got, _ = AwaitAll(p, fs) })
	// Complete out of order.
	k.At(3*time.Second, func() { fs[0].Complete(10, nil) })
	k.At(1*time.Second, func() { fs[1].Complete(20, nil) })
	k.At(2*time.Second, func() { fs[2].Complete(30, nil) })
	k.Run()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Fatalf("AwaitAll = %v", got)
	}
}

func TestResourceLimitsConcurrency(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(2)
	inUse, maxInUse := 0, 0
	for i := 0; i < 6; i++ {
		k.Spawn("user", func(p *Proc) {
			r.Acquire(p)
			inUse++
			if inUse > maxInUse {
				maxInUse = inUse
			}
			p.Sleep(time.Second)
			inUse--
			r.Release()
		})
	}
	end := k.Run()
	if maxInUse != 2 {
		t.Fatalf("max in use = %d, want 2", maxInUse)
	}
	// 6 jobs, 2 slots, 1s each => 3s makespan.
	if end != 3*time.Second {
		t.Fatalf("makespan = %v, want 3s", end)
	}
}

func TestResourceFIFO(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(1)
	var order []int
	for i := 0; i < 4; i++ {
		i := i
		k.SpawnAfter(time.Duration(i)*time.Millisecond, "u", func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Second)
			r.Release()
		})
	}
	k.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	k1 := NewKernel(99)
	k2 := NewKernel(99)
	a := k1.Stream("lambda")
	b := k2.Stream("lambda")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same (seed,name) streams diverge")
		}
	}
	c := k1.Stream("other")
	d := k1.Stream("lambda")
	same := true
	for i := 0; i < 10; i++ {
		if c.Uint64() != d.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different names produced identical streams")
	}
}

// TestHeapOrderingRandomized cross-checks the 4-ary event heap against
// a reference sort under adversarial (pseudo-random, tie-heavy)
// insertion order.
func TestHeapOrderingRandomized(t *testing.T) {
	k := NewKernel(1)
	const n = 5000
	var got []Time
	state := uint64(12345)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		// Few distinct times: exercises the seq tiebreak heavily.
		at := time.Duration(state%97) * time.Millisecond
		k.At(at, func() { got = append(got, k.Now()) })
	}
	k.Run()
	if len(got) != n {
		t.Fatalf("ran %d events, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		if got[i] < got[i-1] {
			t.Fatalf("event %d at %v ran after %v", i, got[i], got[i-1])
		}
	}
}

// TestSameTimeFIFOUnderLoad asserts the (time, seq) tiebreak holds for
// a large same-instant batch (a heap without the seq key would reorder).
func TestSameTimeFIFOUnderLoad(t *testing.T) {
	k := NewKernel(1)
	const n = 2000
	var got []int
	for i := 0; i < n; i++ {
		i := i
		k.At(time.Second, func() { got = append(got, i) })
	}
	k.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("slot %d ran event %d: same-instant FIFO broken", i, v)
		}
	}
}

// TestRunReleasesEventStorage asserts the drained queue's backing array
// is dropped so a retained Env does not pin campaign-sized event
// storage (the core.Series memory-retention fix): the heap, the
// immediate lane, and a Timers' fine and far rings, block pool, sorted
// bucket and overflow heap.
func TestRunReleasesEventStorage(t *testing.T) {
	k := NewKernel(1)
	tm := k.NewTimers(func(int64) {})
	for i := 0; i < 4096; i++ {
		k.After(time.Duration(i)*time.Millisecond, func() {})
		at := time.Duration(i) * time.Millisecond
		switch {
		case i%64 == 63:
			at = time.Duration(i) * time.Hour // beyond the far tier
		case i%16 == 15:
			at *= 1000 // beyond the fine tier
		}
		tm.At(at, int64(i))
	}
	if cap(k.heap.keys) == 0 || tm.fine.n == 0 || tm.far.n == 0 || len(tm.over.keys) == 0 {
		t.Fatal("queue unexpectedly empty before Run")
	}
	k.Run()
	if k.heap.keys != nil || k.heap.vals != nil {
		t.Fatalf("heap storage retained after drain: cap %d", cap(k.heap.keys))
	}
	if k.imm != nil {
		t.Fatalf("immediate-lane storage retained after drain: cap %d", cap(k.imm))
	}
	for _, r := range []*timerRing{&tm.fine, &tm.far} {
		if r.slots != nil || r.occupied != nil {
			t.Fatalf("Timers ring retained after drain: %d slots", len(r.slots))
		}
	}
	if tm.pool != nil || tm.cur != nil || tm.over.keys != nil || tm.over.vals != nil {
		t.Fatalf("Timers storage retained after drain: pool %v, cur cap %d, overflow cap %d",
			tm.pool != nil, cap(tm.cur), cap(tm.over.keys))
	}
	// The kernel must stay usable after the release.
	ran, fired := false, false
	k.After(0, func() { ran = true })
	tm2 := k.NewTimers(func(int64) { fired = true })
	tm2.At(time.Hour, 0)
	k.Run()
	if !ran || !fired {
		t.Fatal("kernel unusable after storage release")
	}
}

// TestExecutedCounter checks the events/sec denominator.
func TestExecutedCounter(t *testing.T) {
	k := NewKernel(1)
	const n = 100
	for i := 0; i < n; i++ {
		k.At(time.Duration(i%5)*time.Millisecond, func() {})
	}
	k.Run()
	if k.Executed() != n {
		t.Fatalf("Executed() = %d, want %d", k.Executed(), n)
	}
	if k.Pending() != 0 {
		t.Fatalf("Pending() = %d after drain", k.Pending())
	}
}

// TestShardedRunUntilDeadline checks that the deadline cut consults
// both heads — the event at 0 waits in the immediate lane, the rest in
// the heap — runs the events at the deadline itself, and that a later
// Run resumes where the cut left off.
func TestShardedRunUntilDeadline(t *testing.T) {
	k := NewKernel(9)
	var ran []int
	for i := 0; i < 40; i++ {
		i := i
		k.At(time.Duration(i)*time.Second, func() { ran = append(ran, i) })
	}
	k.RunUntil(19 * time.Second)
	if len(ran) != 20 {
		t.Fatalf("ran %d events before deadline, want 20", len(ran))
	}
	for i, v := range ran {
		if v != i {
			t.Fatalf("slot %d ran event %d", i, v)
		}
	}
	if k.Pending() != 20 {
		t.Fatalf("Pending() = %d, want 20", k.Pending())
	}
	if k.Now() != 19*time.Second {
		t.Fatalf("Now() = %v, want 19s", k.Now())
	}
	k.Run()
	if len(ran) != 40 || k.Pending() != 0 {
		t.Fatalf("resume after deadline: ran=%d pending=%d", len(ran), k.Pending())
	}
}

// TestLaneFIFOAcrossBlocks runs a standing population of timers that
// each re-arm the traffic engine's 5 min idle-reap delay, large enough
// that each bucket spans several blocks, through a few rounds on one
// Timers, so every entry passes through the far tier: every firing
// comes in arming order, each timer fires once per round, and the
// clamp runs a past time now.
func TestLaneFIFOAcrossBlocks(t *testing.T) {
	const population, rounds, delay = 3*1024 + 7, 4, 5 * time.Minute
	k := NewKernel(1)
	var tm *Timers
	var fired int
	last := int32(-1)
	tm = k.NewTimers(func(arg int64) {
		j := int32(arg)
		if want := (last + 1) % population; j != want {
			t.Fatalf("timer %d fired after %d", j, last)
		}
		last = j
		fired++
		if fired <= population*(rounds-1) {
			tm.At(k.Now()+delay, int64(j))
		}
	})
	for j := int64(0); j < population; j++ {
		tm.At(Time(j)*time.Microsecond, j)
	}
	k.Run()
	if fired != population*rounds || k.Executed() != uint64(fired) {
		t.Fatalf("fired %d, executed %d, want %d", fired, k.Executed(), population*rounds)
	}
	ranAt := Time(-1)
	late := k.NewTimers(func(int64) { ranAt = k.Now() })
	k.At(k.Now()+5*time.Second, func() { late.At(time.Second, 0) })
	k.Run()
	if want := Time(rounds-1)*delay + (population-1)*time.Microsecond + 5*time.Second; ranAt != want {
		t.Fatalf("past Timers event ran at %v, want clamped to %v", ranAt, want)
	}
}

// TestLaneRunUntilAndPending: a deadline that falls between two Timers
// events stops the run there, Pending counts the Timers events left,
// and a later Run resumes with them.
func TestLaneRunUntilAndPending(t *testing.T) {
	k := NewKernel(1)
	var ran []int64
	tm := k.NewTimers(func(a int64) { ran = append(ran, a) })
	tm.At(time.Second, 1)
	tm.At(3*time.Second, 2)
	tm.At(4*time.Second, 3)
	k.At(2*time.Second, func() { ran = append(ran, 0) })
	if k.Pending() != 4 {
		t.Fatalf("Pending() = %d, want 4", k.Pending())
	}
	if end := k.RunUntil(2500 * time.Millisecond); end != 2500*time.Millisecond {
		t.Fatalf("RunUntil ended at %v, want the 2.5s deadline", end)
	}
	if len(ran) != 2 || ran[0] != 1 || ran[1] != 0 || k.Pending() != 2 {
		t.Fatalf("before the deadline: ran %v, %d pending", ran, k.Pending())
	}
	k.Run()
	if len(ran) != 4 || ran[2] != 2 || ran[3] != 3 || k.Pending() != 0 || k.Now() != 4*time.Second {
		t.Fatalf("after resuming: ran %v, %d pending, clock %v", ran, k.Pending(), k.Now())
	}
}
