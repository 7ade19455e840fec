package sim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// Property: events always fire in non-decreasing time order, FIFO
// within an instant, for arbitrary scheduling sequences.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		k := NewKernel(1)
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, d := range delays {
			i, at := i, time.Duration(d)*time.Millisecond
			k.At(at, func() { log = append(log, fired{at: k.Now(), seq: i}) })
		}
		k.Run()
		if len(log) != len(delays) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			// FIFO within the same instant: scheduling order preserved.
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: events scheduled from inside the loop run in (at,
// scheduling order) order. Each callback queues follow-ups, either
// same-instant ones (After(0), which wait in the immediate lane) or
// future ones (which wait in the heap), so lane events keep meeting
// heap events queued earlier for the same instant. Every event is
// tagged from a test-side counter bumped at each After call.
func TestPropertyLaneHeapMerge(t *testing.T) {
	f := func(ops []uint8) bool {
		if len(ops) == 0 {
			return true
		}
		k := NewKernel(1)
		type fired struct {
			at  Time
			tag int
		}
		var log []fired
		tags, next := 0, 0
		var schedule func()
		schedule = func() {
			// A quarter of the events are same-instant follow-ups; the
			// rest land 1–3 ms ahead, so instants collect many ties.
			d := Time(ops[next]%4) * time.Millisecond
			next++
			tags++
			tag := tags
			k.After(d, func() {
				log = append(log, fired{at: k.Now(), tag: tag})
				for c := 0; c < 2 && next < len(ops); c++ {
					schedule()
				}
			})
		}
		for r := 0; r < 4 && next < len(ops); r++ {
			schedule()
		}
		k.Run()
		if len(log) != tags {
			return false
		}
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			if b.at < a.at || (b.at == a.at && b.tag < a.tag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the immediate lane, the heap and two Timers merge into one
// (at, scheduling order) order. Each callback queues up to two
// follow-ups, each one of four ways: After(0) (immediate lane),
// After(1–3 ms) (heap), 2 ms ahead on a fixed-delay Timers, or on a
// chain Timers, whose every event queues the next 0–3 ms ahead.
// Instants therefore collect ties across all four, and a chain event
// queued for the current instant meets immediate-lane events. Every
// event is tagged from a test-side counter bumped at each scheduling
// call.
func TestPropertyLanesMerge(t *testing.T) {
	f := func(ops []uint8) bool {
		k := NewKernel(1)
		type fired struct {
			at  Time
			tag int32
		}
		var log []fired
		var tags int32
		next, chainPending := 0, false
		var schedule func()
		run := func(tag int32) {
			log = append(log, fired{at: k.Now(), tag: tag})
			for c := 0; c < 2 && next < len(ops); c++ {
				schedule()
			}
		}
		fixed := k.NewTimers(func(tag int64) { run(int32(tag)) })
		var chain *Timers
		chain = k.NewTimers(func(tag int64) {
			chainPending = false
			if next < len(ops) {
				d := Time(ops[next]%4) * time.Millisecond
				next++
				tags++
				chainPending = true
				chain.At(k.Now()+d, int64(tags))
			}
			run(int32(tag))
		})
		schedule = func() {
			op := ops[next]
			next++
			tags++
			tag := tags
			d := Time(op>>2%4) * time.Millisecond
			switch {
			case op%4 == 0:
				k.After(0, func() { run(tag) })
			case op%4 == 1:
				k.After(time.Millisecond+d%(3*time.Millisecond), func() { run(tag) })
			case op%4 == 2:
				fixed.At(k.Now()+2*time.Millisecond, int64(tag))
			case !chainPending:
				chainPending = true
				chain.At(k.Now()+d, int64(tag))
			default:
				k.After(d, func() { run(tag) })
			}
		}
		for r := 0; r < 4 && next < len(ops); r++ {
			schedule()
		}
		k.Run()
		if len(log) != int(tags) || k.Executed() != uint64(tags) || k.Pending() != 0 {
			return false
		}
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			if b.at < a.at || (b.at == a.at && b.tag < a.tag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: quiet events merge with the heap, the immediate lane and a
// Timers into one (at, scheduling order) order, and Horizon is always
// the earliest of the pending non-quiet events, the exposed quiet
// events, the next tick boundary and the instant after RunUntil's
// deadline. Each callback queues up to two follow-ups, each one of
// After(0–3 ms), At, Quiet at 0–3 ms, or 2 ms ahead on a Timers, or
// exposes the oldest unexposed quiet event; a tick listener is set at
// one of three periods or not at all, and the run goes in RunUntil
// steps before a final Run. An exposed event that has run leaves
// nothing behind: the drained kernel has no horizon.
func TestPropertyQuietEvents(t *testing.T) {
	f := func(ops []uint8, tickRaw uint8) bool {
		k := NewKernel(1)
		type entry struct {
			at             Time
			quiet, exposed bool
			ev             QuietEvent
		}
		type fired struct {
			at  Time
			tag int32
		}
		pending := map[int32]*entry{}
		var log []fired
		var tags int32
		next, deadline, tickNext, ok := 0, Time(-1), Time(math.MaxInt64), true
		if every := Time(tickRaw%4) * 2 * time.Millisecond; every > 0 {
			tickNext = every
			k.SetTickListener(every, func(b Time) { tickNext = b + every })
		}
		var schedule func()
		run := func(tag int32) {
			delete(pending, tag)
			log = append(log, fired{at: k.Now(), tag: tag})
			want := tickNext
			if deadline >= 0 {
				want = min(want, deadline+1)
			}
			for _, e := range pending {
				if !e.quiet || e.exposed {
					want = min(want, e.at)
				}
			}
			if got := k.Horizon(); got != want {
				t.Logf("at %v: Horizon() = %v, want %v", k.Now(), got, want)
				ok = false
			}
			for c := 0; c < 2 && next < len(ops); c++ {
				schedule()
			}
		}
		lane := k.NewTimers(func(tag int64) { run(int32(tag)) })
		schedule = func() {
			op := ops[next]
			next++
			at := k.Now() + Time(op>>3%4)*time.Millisecond
			if op%8 == 7 {
				var oldest int32
				for tag, e := range pending {
					if e.quiet && !e.exposed && (oldest == 0 || tag < oldest) {
						oldest = tag
					}
				}
				if e := pending[oldest]; e != nil {
					e.exposed = true
					k.Expose(e.ev)
				}
				return
			}
			tags++
			tag := tags
			e := &entry{at: at}
			switch op % 8 {
			case 0, 1:
				k.After(at-k.Now(), func() { run(tag) })
			case 2, 3:
				k.At(at, func() { run(tag) })
			case 4, 5:
				e.quiet = true
				e.ev = k.Quiet(at, func() { run(tag) })
			default:
				e.at = k.Now() + 2*time.Millisecond
				lane.At(e.at, int64(tag))
			}
			pending[tag] = e
		}
		for r := 0; r < 4 && next < len(ops); r++ {
			schedule()
		}
		for i := 0; i < 3 && k.Pending() > 0; i++ {
			deadline = k.Now() + Time(i+1)*time.Millisecond
			k.RunUntil(deadline)
		}
		deadline = -1
		k.Run()
		k.SetTickListener(0, nil)
		if !ok || len(log) != int(tags) || k.Executed() != uint64(tags) || k.Pending() != 0 || k.Horizon() != math.MaxInt64 {
			return false
		}
		for i := 1; i < len(log); i++ {
			a, b := log[i-1], log[i]
			if b.at < a.at || (b.at == a.at && b.tag < a.tag) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a resource never exceeds its capacity and all acquirers
// eventually run, for arbitrary hold times and arrival offsets.
func TestPropertyResourceSafety(t *testing.T) {
	f := func(holds []uint8, capRaw uint8) bool {
		if len(holds) == 0 || len(holds) > 64 {
			return true
		}
		capacity := int(capRaw%8) + 1
		k := NewKernel(2)
		r := NewResource(capacity)
		inUse, maxUse, completed := 0, 0, 0
		for i, h := range holds {
			hold := time.Duration(h%50+1) * time.Millisecond
			k.SpawnAfter(time.Duration(i%7)*time.Millisecond, "u", func(p *Proc) {
				r.Acquire(p)
				inUse++
				if inUse > maxUse {
					maxUse = inUse
				}
				p.Sleep(hold)
				inUse--
				r.Release()
				completed++
			})
		}
		k.Run()
		return maxUse <= capacity && completed == len(holds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the kernel's run is reproducible — the same schedule built
// from the same inputs yields identical event timestamps.
func TestPropertyKernelReproducible(t *testing.T) {
	f := func(seed uint64, delays []uint16) bool {
		run := func() []Time {
			k := NewKernel(seed)
			rng := k.Stream("jitter")
			var log []Time
			for _, d := range delays {
				at := time.Duration(d)*time.Millisecond + time.Duration(rng.Intn(1000))*time.Microsecond
				k.At(at, func() { log = append(log, k.Now()) })
			}
			k.Run()
			return log
		}
		a, b := run(), run()
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Timers events merge with the heap, the immediate lane and
// quiet events into one (at, seq) order. Each seeded case queues
// events on three Timers and the other sources from inside callbacks
// and from the caller between RunUntil steps, with a tick listener at
// one of five periods or none. Times are drawn to collide: the clock
// itself, inside a bucket, exactly on bucket edges, 8.6 s ahead of the
// clock's bucket and of the cursor's, a Timers' fine-tier limit and
// far-tier end (each give or take a fine or coarse bucket and a
// nanosecond), far beyond the fine window, up to 20 h ahead, past the
// far tier, and the time of an event already queued, so ties on at
// fall across sources. Every event checks that it is the reference
// model's (at, seq) minimum, and Pending, Executed and Horizon are
// checked against the model after every event and every scheduling
// call, so a Horizon peek, which can load a bucket ahead of the clock,
// separates the calls.
func TestPropertyTimersMerge(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkTimersMerge(t, seed)
	}
}

func checkTimersMerge(t *testing.T, seed int64) {
	const (
		width  = Time(1) << calShift
		window = calBuckets * width
		coarse = width << coarseBits
	)
	rng := rand.New(rand.NewSource(seed))
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: "+format, append([]any{seed}, args...)...)
	}
	type entry struct {
		at                  Time
		quiet, exposed, imm bool
		ev                  QuietEvent
	}
	k := NewKernel(1)
	pending := map[int32]*entry{}
	var ats []Time
	var tags int32
	var executed uint64
	budget := 50 + rng.Intn(250)
	deadline, tickNext := Time(-1), Time(math.MaxInt64)

	// The horizon is the clock while the immediate lane holds an event.
	// Otherwise it is the earliest of the events other than unexposed
	// quiet ones, the next tick boundary and the instant after the
	// deadline, but never before the clock: after RunUntil moves the
	// clock to its deadline, the boundary can be behind it.
	check := func(where string) {
		t.Helper()
		want := tickNext
		if deadline >= 0 {
			want = min(want, deadline+1)
		}
		for _, e := range pending {
			if e.imm {
				want = k.Now()
				break
			}
			if !e.quiet || e.exposed {
				want = min(want, e.at)
			}
		}
		got := k.Horizon()
		if got < k.Now() {
			fail("%s at %v: Horizon() = %v is before the clock", where, k.Now(), got)
		}
		if want = max(want, k.Now()); got != want {
			fail("%s at %v: Horizon() = %v, want %v", where, k.Now(), got, want)
		}
		if k.Pending() != len(pending) || k.Executed() != executed {
			fail("%s at %v: Pending %d, Executed %d; want %d, %d", where, k.Now(), k.Pending(), k.Executed(), len(pending), executed)
		}
	}
	// earliest reports whether tag is the model's (at, seq) minimum.
	earliest := func(tag int32, at Time) bool {
		for other, o := range pending {
			if o.at < at || o.at == at && other < tag {
				return false
			}
		}
		return true
	}
	if every := []Time{0, width / 3, width, 7 * width, window / 5}[rng.Intn(5)]; every > 0 {
		tickNext = every
		k.SetTickListener(every, func(b Time) {
			now := k.Now()
			if b < tickNext || b > now || now-b >= every {
				fail("tick %v at %v, next boundary %v", b, now, tickNext)
			}
			// The boundary-crossing event has not run yet: nothing
			// before it has been skipped.
			for _, e := range pending {
				if e.at < now {
					fail("tick %v at %v with an event due at %v pending", b, now, e.at)
				}
			}
			tickNext = b + every
		})
	}

	var schedule func()
	run := func(tag int32) {
		e := pending[tag]
		if e == nil {
			fail("event %d ran twice", tag)
		}
		if k.Now() != e.at || !earliest(tag, e.at) {
			fail("event %d due at %v ran at %v out of (at, seq) order", tag, e.at, k.Now())
		}
		delete(pending, tag)
		executed++
		check("in an event")
		for i := rng.Intn(3); i > 0; i-- {
			schedule()
		}
	}
	tmC := k.NewTimers(func(arg int64) { run(int32(arg)) })
	tmA := k.NewTimers(func(arg int64) { run(int32(arg)) })
	tmB := k.NewTimers(func(arg int64) { run(int32(arg)) })
	timers := []*Timers{tmA, tmB, tmC}

	pick := func() Time {
		now := k.Now()
		edge := now &^ (width - 1)
		var at Time
		switch rng.Intn(12) {
		case 0:
			at = now
		case 1:
			at = now + Time(1+rng.Intn(int(width/2)))
		case 2:
			at = edge + Time(1+rng.Intn(4))*width
		case 3:
			at = now + Time(rng.Intn(6))*width + Time(rng.Intn(3))*(width/2)
		case 4:
			at = edge + window + Time(rng.Intn(3)-1)*width + Time(rng.Intn(3)-1)
		case 5:
			at = Time(tmA.cursor+calBuckets)<<calShift + Time(rng.Intn(3)-1)
		case 6:
			at = now + window*Time(2+rng.Intn(30))/Time(1+rng.Intn(4))
		case 7:
			// A fine tier's limit: the end of the coarse bucket after
			// its cursor's.
			tm := timers[rng.Intn(3)]
			at = Time(tm.cursor>>coarseBits+2)*coarse + Time(rng.Intn(3)-1)*width + Time(rng.Intn(3)-1)
		case 8:
			// A far tier's end.
			tm := timers[rng.Intn(3)]
			at = Time(tm.cursor>>coarseBits+calBuckets)*coarse + Time(rng.Intn(3)-1)*coarse + Time(rng.Intn(3)-1)
		case 9:
			at = now + Time(rng.Int63n(int64(20*time.Hour)))
		default:
			if len(ats) > 0 {
				at = ats[rng.Intn(len(ats))]
			}
		}
		return max(at, now)
	}
	queue := func(e *entry) {
		tags++
		pending[tags] = e
		ats = append(ats, e.at)
	}
	schedule = func() {
		if budget <= 0 {
			return
		}
		budget--
		op := rng.Intn(12)
		if op == 0 {
			// Expose the oldest unexposed quiet event.
			var oldest int32
			for tag, e := range pending {
				if e.quiet && !e.exposed && (oldest == 0 || tag < oldest) {
					oldest = tag
				}
			}
			if e := pending[oldest]; e != nil {
				e.exposed = true
				k.Expose(e.ev)
			}
			check("after Expose")
			return
		}
		e := &entry{at: pick()}
		if op == 4 {
			e.at = k.Now() + width
		}
		queue(e)
		tag := tags
		switch op {
		case 1, 2:
			e.imm = e.at == k.Now()
			if op == 1 {
				k.At(e.at, func() { run(tag) })
			} else {
				k.After(e.at-k.Now(), func() { run(tag) })
			}
		case 3:
			e.quiet = true
			e.ev = k.Quiet(e.at, func() { run(tag) })
		case 4:
			tmC.At(e.at, int64(tag))
		case 5, 6, 7:
			tmA.At(e.at, int64(tag))
		case 8, 10, 11:
			tmB.At(e.at, int64(tag))
		default:
			// A burst into one bucket, over several blocks.
			tmA.At(e.at, int64(tag))
			base := e.at &^ (width - 1)
			for i := 43 + rng.Intn(20); i > 0 && budget > 0; i-- {
				budget--
				at := max(base+Time(rng.Intn(4))*(width/4), k.Now())
				queue(&entry{at: at})
				tmA.At(at, int64(tags))
			}
		}
		check("after scheduling")
	}

	for i := 3 + rng.Intn(10); i > 0; i-- {
		schedule()
	}
	for step := rng.Intn(4); step > 0 && k.Pending() > 0; step-- {
		deadline = pick() - Time(rng.Intn(2))
		k.RunUntil(deadline)
		for tag, e := range pending {
			if e.at <= deadline {
				fail("event %d due at %v still pending after RunUntil(%v)", tag, e.at, deadline)
			}
		}
		check("after RunUntil")
		for i := rng.Intn(4); i > 0; i-- {
			schedule()
		}
	}
	deadline = -1
	k.Run()
	k.SetTickListener(0, nil)
	tickNext = math.MaxInt64
	if len(pending) != 0 || executed != uint64(tags) {
		fail("%d events pending, %d of %d run", len(pending), executed, tags)
	}
	check("after the drain")
}
