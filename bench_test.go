// Package statebench's root benchmarks regenerate every table and
// figure of the paper's evaluation. Each benchmark runs the
// corresponding experiment at smoke scale per iteration; run
//
//	go test -bench=. -benchmem
//
// to regenerate all of them, or target one (e.g. -bench=Fig9). The
// reported metrics (ns/op) measure the harness itself; the scientific
// output is printed through -v or cmd/statebench.
package statebench_test

import (
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"statebench/internal/core"
	"statebench/internal/experiments"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/sim"
	"statebench/internal/traffic"
)

// benchOpts keeps per-iteration work bounded.
func benchOpts() experiments.Options {
	o := experiments.QuickOptions()
	o.Iters = 5
	o.ColdHours = 6
	o.VideoIters = 1
	o.Fig14Target = 500
	return o
}

func runSingle(b *testing.B, fn func(experiments.Options) (*experiments.Report, error)) {
	b.Helper()
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		r, err := fn(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Table.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

// runAll runs the whole registry with the given worker count; the pair
// below is the sequential-vs-parallel comparison committed to
// BENCH_PR1.json (on a single-CPU machine the two are expected to tie).
func runAll(b *testing.B, workers int) {
	b.Helper()
	o := benchOpts()
	o.Workers = workers
	for i := 0; i < b.N; i++ {
		rs, err := experiments.RunAll(experiments.Registry(), o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) == 0 {
			b.Fatal("empty report set")
		}
	}
}

func BenchmarkSequentialAll(b *testing.B) { runAll(b, 1) }
func BenchmarkParallelAll(b *testing.B)   { runAll(b, 0) }

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if r := experiments.Table1(); len(r.Table.Rows) == 0 {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable2(b *testing.B) { runSingle(b, experiments.Table2) }

func BenchmarkFig6(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig6(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 4 {
			b.Fatalf("fig6 produced %d reports", len(rs))
		}
	}
}

func BenchmarkFig7(b *testing.B)  { runSingle(b, experiments.Fig7) }
func BenchmarkFig8(b *testing.B)  { runSingle(b, experiments.Fig8) }
func BenchmarkFig9(b *testing.B)  { runSingle(b, experiments.Fig9) }
func BenchmarkFig10(b *testing.B) { runSingle(b, experiments.Fig10) }

func BenchmarkFig11(b *testing.B) {
	o := benchOpts()
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig11(o)
		if err != nil {
			b.Fatal(err)
		}
		if len(rs) != 4 {
			b.Fatalf("fig11 produced %d reports", len(rs))
		}
	}
}

func BenchmarkFig12(b *testing.B)  { runSingle(b, experiments.Fig12) }
func BenchmarkFig13(b *testing.B)  { runSingle(b, experiments.Fig13) }
func BenchmarkFig14(b *testing.B)  { runSingle(b, experiments.Fig14) }
func BenchmarkFig15(b *testing.B)  { runSingle(b, experiments.Fig15) }
func BenchmarkTable3(b *testing.B) { runSingle(b, experiments.Table3) }

// BenchmarkKernelStandingCascade is the traffic-shaped kernel workload
// behind the BENCH_PR6.json baseline: a large standing population of
// self-rescheduling timer events (every pop and push walks a heap
// holding the full population) plus a same-instant continuation
// cascade per firing (arrival -> record -> dispatch -> complete),
// mirroring the open-loop engine's event mix. Closures are
// preallocated per slot, as the traffic engine's arenas do, so the
// measured cost is the kernel's, not the allocator's.
func BenchmarkKernelStandingCascade(b *testing.B) {
	const (
		population = 1 << 21 // standing timers
		horizon    = 1500 * time.Millisecond
		meanDelay  = 500 * time.Millisecond
		cascade    = 4 // same-instant events per firing
	)
	var total uint64
	for i := 0; i < b.N; i++ {
		k := sim.NewKernel(42)
		rngs := make([]uint64, population)
		fires := make([]func(), population)
		noop := func() {}
		chain := make([]func(), cascade)
		chain[cascade-1] = noop
		for c := cascade - 2; c >= 0; c-- {
			next := chain[c+1]
			chain[c] = func() { k.At(k.Now(), next) }
		}
		for j := 0; j < population; j++ {
			j := j
			rngs[j] = uint64(j)*0x9e3779b97f4a7c15 + 1
			fires[j] = func() {
				// xorshift64: deterministic per-slot delay chain.
				x := rngs[j]
				x ^= x << 13
				x ^= x >> 7
				x ^= x << 17
				rngs[j] = x
				delay := sim.Time(1 + x%(2*uint64(meanDelay)))
				k.At(k.Now()+delay, fires[j])
				k.At(k.Now(), chain[0])
			}
		}
		for j := 0; j < population; j++ {
			x := rngs[j]
			k.At(sim.Time(1+x%(uint64(meanDelay))), fires[j])
		}
		if end := k.RunUntil(horizon); end <= 0 {
			b.Fatal("kernel did not advance")
		}
		total += k.Executed()
	}
	b.ReportMetric(float64(total)/float64(b.N), "events/op")
}

// BenchmarkKernelSameInstantStorm measures the immediate-lane fast
// path against a large standing heap: every event schedules a
// same-instant follow-up (the wake(0)/After(0)/dispatch shape that
// dominates live simulations) while a million future timers sit in
// the heap. Without the lane each of these would pay two full
// O(log n) heap walks through the standing set; the lane serves them
// with an append and an index bump.
func BenchmarkKernelSameInstantStorm(b *testing.B) {
	const standing = 1 << 20
	k := sim.NewKernel(42)
	for j := 0; j < standing; j++ {
		k.At(time.Hour+sim.Time(j), func() {})
	}
	n := b.N
	i := 0
	var step func()
	step = func() {
		if i < n {
			i++
			k.At(k.Now(), step)
		}
	}
	k.At(0, step)
	b.ResetTimer()
	k.RunUntil(time.Minute)
	b.ReportMetric(1, "events/op")
}

// BenchmarkKernelFixedDelayTimers is the traffic engine's scale
// controller in miniature: a standing population of timers, each of
// which re-arms one fixed delay when it fires, so the timers fall due
// in the order they were armed. "at" queues them with Kernel.At, where
// every firing walks a heap that holds the whole population; "timers"
// queues them on a Timers, a calendar queue. At the scale evaluations'
// 6 s delay a timer lands in the calendar's fine tier or one coarse
// bucket past it; at the idle reaps' 5 min delay ("reap-5m") every one
// passes through the far tier. Each timer fires ten and five times.
func BenchmarkKernelFixedDelayTimers(b *testing.B) {
	const population = 1 << 19
	for _, c := range []struct {
		name           string
		delay, horizon time.Duration
	}{
		{"", 6 * time.Second, time.Minute},
		{"reap-5m/", 5 * time.Minute, 25 * time.Minute},
	} {
		stagger := c.delay / population
		run := func(b *testing.B, arm func(k *sim.Kernel)) {
			var total uint64
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(42)
				arm(k)
				k.RunUntil(c.horizon)
				total += k.Executed()
			}
			b.ReportMetric(float64(total)/float64(b.N), "events/op")
		}
		b.Run(c.name+"at", func(b *testing.B) {
			run(b, func(k *sim.Kernel) {
				fires := make([]func(), population)
				for j := range fires {
					j := j
					fires[j] = func() { k.At(k.Now()+c.delay, fires[j]) }
					k.At(sim.Time(j)*stagger, fires[j])
				}
			})
		})
		b.Run(c.name+"timers", func(b *testing.B) {
			run(b, func(k *sim.Kernel) {
				var tm *sim.Timers
				tm = k.NewTimers(func(j int64) { tm.At(k.Now()+c.delay, j) })
				for j := int64(0); j < population; j++ {
					tm.At(sim.Time(j)*stagger, j)
				}
			})
		})
	}
}

// BenchmarkKernelRandomDelayTimers is the traffic engine's completions
// in miniature: a standing population of timers, each of which re-arms
// after a delay drawn from one serving model's completion mix, so they
// fall due in an order unrelated to the order they were queued in.
// per-request draws the invoke round trip, then the warm entry or, in
// 60% of draws (the cold share of the per-request run in perfbench
// open-loop), the cold entry with the 64 MB code fetch, then the
// execution time; instance-pool draws the dispatch and the execution
// time. "at" queues the timers with Kernel.At, where every firing
// walks a heap that holds the whole population; "timers" queues them
// on a Timers, whose calendar queue serves them in O(1).
func BenchmarkKernelRandomDelayTimers(b *testing.B) {
	const (
		population = 1 << 17
		coldShare  = 0.6
		codeMB     = 64
	)
	exec := sim.NewLogNormal(80*time.Millisecond, 0.5, 10*time.Second) // traffic.Config's default
	aws, okAWS := core.Provider(core.AWS)
	azure, okAzure := core.Provider(core.Azure)
	if !okAWS || !okAzure || aws.Traffic == nil || azure.Traffic == nil {
		b.Skip("no traffic profile for AWS or Azure")
	}
	perReq, pool := aws.Traffic(), azure.Traffic()
	fetch := sim.Time(codeMB * 1e6 / perReq.CodeFetchBW * 1e9)
	mixes := []struct {
		name    string
		horizon time.Duration
		delay   func(r *sim.RNG) sim.Time
	}{
		{"per-request", 20 * time.Second, func(r *sim.RNG) sim.Time {
			d := perReq.InvokeRTT.Sample(r)
			if r.Float64() < coldShare {
				d += perReq.ColdStart.Sample(r) + fetch
			} else {
				d += perReq.WarmStart.Sample(r)
			}
			return d + exec.Sample(r)
		}},
		{"instance-pool", 2 * time.Second, func(r *sim.RNG) sim.Time {
			return pool.WarmStart.Sample(r) + exec.Sample(r)
		}},
	}
	for _, mix := range mixes {
		run := func(b *testing.B, arm func(k *sim.Kernel, r *sim.RNG)) {
			var total uint64
			for i := 0; i < b.N; i++ {
				k := sim.NewKernel(42)
				arm(k, k.Stream("timers"))
				k.RunUntil(mix.horizon)
				total += k.Executed()
			}
			b.ReportMetric(float64(total)/float64(b.N), "events/op")
		}
		b.Run(mix.name+"/at", func(b *testing.B) {
			run(b, func(k *sim.Kernel, r *sim.RNG) {
				fires := make([]func(), population)
				for j := range fires {
					j := j
					fires[j] = func() { k.At(k.Now()+mix.delay(r), fires[j]) }
					k.At(mix.delay(r), fires[j])
				}
			})
		})
		b.Run(mix.name+"/timers", func(b *testing.B) {
			run(b, func(k *sim.Kernel, r *sim.RNG) {
				var tm *sim.Timers
				tm = k.NewTimers(func(j int64) { tm.At(k.Now()+mix.delay(r), j) })
				for j := int64(0); j < population; j++ {
					tm.At(mix.delay(r), j)
				}
			})
		})
	}
}

// trafficMillionTenants is one full open-loop run (arrive, drain,
// bill) at acceptance scale: a one-million-tenant population under a
// Poisson stream, with one sub-benchmark per serving model, each
// against the first registered provider that serves that way
// (per-request: AWS; instance-pool: Azure, whose scale evaluations,
// idle reaps and backlog make it the heavier run). timeline toggles
// windowed telemetry, so the plain/Timeline benchmark pair measures the
// instrumentation's overhead (the disabled nil-*Series fast path must
// stay within noise of the pre-telemetry engine). peak-RSS-MB is the
// process's high-water mark, so it is a sub-benchmark's own only when
// -bench selects that sub-benchmark alone, as `make bench-traffic` does.
func trafficMillionTenants(b *testing.B, timeline bool) {
	seen := map[platform.ServeStyle]bool{}
	for _, spec := range core.Providers() {
		if spec.Traffic == nil {
			continue
		}
		style := spec.Traffic().Style
		if seen[style] {
			continue
		}
		seen[style] = true
		spec := spec
		b.Run(style.String(), func(b *testing.B) {
			var events, windows uint64
			for i := 0; i < b.N; i++ {
				cfg := traffic.Config{
					Tenants:    1_000_000,
					Duration:   time.Minute,
					Process:    traffic.Poisson{Rate: 100_000},
					Profile:    spec.Traffic(),
					Book:       spec.DefaultBook(),
					CodeSizeMB: 64,
					Seed:       42,
				}
				if timeline {
					cfg.Timeline = tseries.New(0)
				}
				res := traffic.Run(cfg)
				if res.Completions != res.Arrivals {
					b.Fatalf("dropped work: %d arrivals, %d completions", res.Arrivals, res.Completions)
				}
				events += res.Events
				windows += uint64(cfg.Timeline.Len())
			}
			b.ReportMetric(float64(events)/float64(b.N), "events/op")
			if timeline {
				b.ReportMetric(float64(windows)/float64(b.N), "windows/op")
			}
			if rss, ok := peakRSSMB(); ok {
				b.ReportMetric(float64(rss), "peak-RSS-MB")
			}
		})
	}
	if len(seen) == 0 {
		b.Skip("no provider registers a traffic profile")
	}
}

// One iteration is one full run, so size both with -benchtime 1x;
// events/op and peak-RSS-MB land in BENCH_PR*.json via cmd/benchjson.
func BenchmarkTrafficMillionTenants(b *testing.B)         { trafficMillionTenants(b, false) }
func BenchmarkTrafficMillionTenantsTimeline(b *testing.B) { trafficMillionTenants(b, true) }

// peakRSSMB reads the process high-water resident set from
// /proc/self/status (Linux only; absence just skips the metric).
func peakRSSMB() (int64, bool) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0, false
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0, false
		}
		return kb / 1024, true
	}
	return 0, false
}
