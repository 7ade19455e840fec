package sim

import (
	"testing"
	"time"
)

// BenchmarkEventThroughput measures raw event-loop dispatch rate.
func BenchmarkEventThroughput(b *testing.B) {
	k := NewKernel(1)
	for i := 0; i < b.N; i++ {
		k.After(time.Duration(i), func() {})
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcContextSwitch measures a blocking operation whose
// wake-up is the process's own next event: the process dispatches it
// itself and resumes in place, with no goroutine switch.
func BenchmarkProcContextSwitch(b *testing.B) {
	k := NewKernel(1)
	n := b.N
	k.Spawn("switcher", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	b.ResetTimer()
	k.Run()
}

// BenchmarkProcHandoff measures a wake-up that passes the baton: two
// processes take turns, so every op is one goroutine switch.
func BenchmarkProcHandoff(b *testing.B) {
	k := NewKernel(1)
	n := b.N / 2
	for i := 0; i < 2; i++ {
		k.SpawnAfter(time.Duration(i), "turn", func(p *Proc) {
			for j := 0; j < n; j++ {
				p.Sleep(2 * time.Nanosecond)
			}
		})
	}
	b.ResetTimer()
	k.Run()
}

// BenchmarkKernelSchedule measures the full schedule/dispatch cycle of
// the event queue under out-of-order insertion — the per-event cost
// every campaign pays millions of times. Run with -benchmem: the alloc
// count per event is the tracked regression metric.
func BenchmarkKernelSchedule(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	fn := func() {}
	// Deterministic pseudo-random times keep the heap honest (pure
	// ascending insertion never exercises sift-down). Scheduling is
	// inside the timed region so allocs/op reflects the At cost.
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < b.N; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		k.At(time.Duration(state%1e9), fn)
	}
	k.Run()
}

// BenchmarkKernelScheduleInterleaved alternates At with dispatch, the
// steady-state shape of a live simulation (queue stays small, slots are
// recycled).
func BenchmarkKernelScheduleInterleaved(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	n := b.N
	var step func()
	i := 0
	step = func() {
		if i < n {
			i++
			k.After(time.Microsecond, step)
		}
	}
	k.After(0, step)
	b.ResetTimer()
	k.Run()
}

// BenchmarkFutureFanIn measures fan-out/fan-in through futures.
func BenchmarkFutureFanIn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k := NewKernel(1)
		futures := make([]*Future[int], 64)
		for j := range futures {
			f := NewFuture[int](k)
			futures[j] = f
			d := time.Duration(j) * time.Microsecond
			k.After(d, func() { f.Complete(1, nil) })
		}
		k.Spawn("fanin", func(p *Proc) {
			if _, err := AwaitAll(p, futures); err != nil {
				b.Error(err)
			}
		})
		k.Run()
	}
}

// BenchmarkLogNormalSample measures one draw from a capped lognormal,
// the latency model of every invoke, poll and storage operation.
func BenchmarkLogNormalSample(b *testing.B) {
	d := NewLogNormal(20*time.Millisecond, 0.3, time.Second)
	r := NewRNG(1)
	var sum time.Duration
	for i := 0; i < b.N; i++ {
		sum += d.Sample(r)
	}
	if sum < 0 {
		b.Fatal("negative sample")
	}
}
