package experiments

import (
	"fmt"
	"time"

	"statebench/internal/core"
	"statebench/internal/obs"
	"statebench/internal/parallel"
	"statebench/internal/pricing"
	"statebench/internal/sim"
	"statebench/internal/workloads/videoproc"
)

// videoWorkerCounts is the Fig 12 sweep.
var videoWorkerCounts = []int{10, 20, 40, 80}

// videoMeasure runs the video workload with cold pools per iteration
// (the paper's fan-outs repeatedly hit cold scale-out on Azure).
func videoMeasure(o Options, impl core.Impl, workers, iters int) (*core.Series, error) {
	wf := videoproc.New(workers)
	opt := core.DefaultMeasureOptions()
	opt.Iters = iters
	opt.Seed = o.Seed
	opt.Warmup = 0
	opt.Gap = 20 * time.Minute // beyond the idle timeouts: cold pools
	applyObs(o, &opt)
	return core.Measure(wf, impl, opt)
}

// Fig12 reproduces Fig 12: end-to-end video latency vs worker count.
// The sweep is 2 monolith campaigns plus 2 styles × 4 worker counts,
// all independent; every campaign fans out across the pool.
func Fig12(o Options) (*Report, error) {
	r := &Report{ID: "fig12", Title: "Video processing end-to-end latency vs workers"}
	r.Table.Header = []string{"workers", string(core.AWSStep), string(core.AzDorch)}
	type campaign struct {
		impl    core.Impl
		workers int
	}
	campaigns := []campaign{{core.AWSLambda, 1}, {core.AzFunc, 1}}
	for _, n := range videoWorkerCounts {
		campaigns = append(campaigns, campaign{core.AWSStep, n}, campaign{core.AzDorch, n})
	}
	medians, err := parallel.Map(o.Workers, len(campaigns), func(i int) (time.Duration, error) {
		c := campaigns[i]
		s, err := videoMeasure(o, c.impl, c.workers, o.VideoIters)
		if err != nil {
			return 0, err
		}
		return s.E2E.Median(), nil
	})
	if err != nil {
		return nil, err
	}
	r.Table.AddRow("1 (monolith)", fmtDur(medians[0]), fmtDur(medians[1]))
	var aws80 float64
	awsMono50 := float64(medians[0])
	for i, n := range videoWorkerCounts {
		awsMed, azMed := medians[2+2*i], medians[3+2*i]
		if n == 80 {
			aws80 = float64(awsMed)
		}
		r.Table.AddRow(fmt.Sprintf("%d", n), fmtDur(awsMed), fmtDur(azMed))
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"AWS 80-worker improvement over AWS-Lambda monolith: %.0f%% (paper: >80%%); Azure does not scale",
		(1-aws80/awsMono50)*100))
	return r, nil
}

// Fig13 reproduces Fig 13: the video latency breakdown, contrasting
// AWS-Step's small, stable cold start with the Azure orchestrator's
// wide-ranging start delays.
func Fig13(o Options) (*Report, error) {
	r := &Report{ID: "fig13", Title: "Video processing latency breakdown (20 workers)"}
	r.Table.Header = []string{"impl", "cold start (mean)", "cold start (max)", "queue+sched", "exec"}
	impls := []core.Impl{core.AWSStep, core.AzDorch}
	rows, err := parallel.Map(o.Workers, len(impls), func(i int) ([]string, error) {
		s, err := videoMeasure(o, impls[i], 20, o.VideoIters)
		if err != nil {
			return nil, err
		}
		b := s.Breakdowns.AtQuantile(0.5)
		return []string{string(impls[i]), fmtDur(s.Cold.Mean()), fmtDur(s.Cold.Max()), fmtDur(b.QueueTime), fmtDur(b.ExecTime)}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Table.Rows = append(r.Table.Rows, rows...)
	r.Notes = append(r.Notes, "paper: AWS cold start 1-2s; Azure orchestrator start averages ~10s with a wide range")
	return r, nil
}

// Fig14 reproduces Fig 14: the scheduling-delay distribution across
// tens of thousands of Azure face-detection workers, collected (as the
// paper did) across repeated cold fan-outs at several widths.
func Fig14(o Options) (*Report, error) {
	var delays obs.Samples
	iter := 0
	for delays.Len() < o.Fig14Target {
		// One round = one cold fan-out per width. The campaigns are
		// independent (seed depends only on the campaign number), so a
		// round runs in parallel; shards are added in campaign order
		// and consumption stops at the target, so the collected sample
		// set matches the sequential loop byte for byte.
		shards, err := parallel.Map(o.Workers, len(videoWorkerCounts), func(i int) ([]time.Duration, error) {
			wf := videoproc.New(videoWorkerCounts[i])
			opt := core.DefaultMeasureOptions()
			opt.Iters = 1 // cold scale-out, as each of the paper's fan-outs was
			opt.Warmup = 0
			opt.Gap = 30 * time.Second
			opt.Seed = o.Seed + uint64(iter+i)*977
			opt.KeepEnv = true // the drill-down below needs the Azure host stats
			applyObs(o, &opt)
			s, err := core.Measure(wf, core.AzDorch, opt)
			if err != nil {
				return nil, err
			}
			return videoproc.WorkerSchedDelays(s.Env), nil
		})
		if err != nil {
			return nil, err
		}
		for _, shard := range shards {
			if delays.Len() >= o.Fig14Target {
				break
			}
			delays.AddAll(shard)
			iter++
		}
	}
	r := &Report{ID: "fig14", Title: fmt.Sprintf("Scheduling delay CDF (%d workers observed)", delays.Len())}
	r.Table.Header = []string{"fraction", "delay"}
	for _, f := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		r.Table.AddRow(fmt.Sprintf("%.2f", f), fmtDur(delays.Quantile(f)))
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"fraction waiting >=40s: %.0f%% (paper: ~50%%); fraction waiting >=270s: %.1f%% (paper: ~5%%)",
		(1-delays.FracBelow(40*time.Second))*100, (1-delays.FracBelow(270*time.Second))*100))
	return r, nil
}

// Fig15 reproduces Fig 15: the estimated monthly cost of running the
// 20-worker video workload on each style, including Azure's idle-time
// queue polling. A representative window is simulated (runs spread at
// the paper-like daily cadence) and scaled to 30 days.
func Fig15(o Options) (*Report, error) {
	// The paper's monthly estimate is idle-dominated: the workflow runs
	// every other day while the task hub polls its queues around the
	// clock. A 48 h window with one run is simulated and scaled to 30
	// days.
	const window = 48 * time.Hour
	interval := window
	runsInWindow := 1
	scale := float64(30*24*time.Hour) / float64(window)

	r := &Report{ID: "fig15", Title: "Estimated monthly cost, video processing (20 workers)"}
	r.Table.Header = []string{"impl", "compute", "stateful", "total", "stateful share"}
	impls := []core.Impl{core.AWSLambda, core.AWSStep, core.AzFunc, core.AzDorch}
	bills, err := parallel.Map(o.Workers, len(impls), func(i int) (pricing.Bill, error) {
		return monthlyBill(o, impls[i], window, interval, runsInWindow)
	})
	if err != nil {
		return nil, err
	}
	var azStateful, awsStateful float64
	for i, impl := range impls {
		monthly := bills[i].Scale(scale)
		if impl == core.AzDorch {
			azStateful = monthly.Stateful
		} else if impl == core.AWSStep {
			awsStateful = monthly.Stateful
		}
		r.Table.AddRow(string(impl), fmtUSD(monthly.Compute), fmtUSD(monthly.Stateful),
			fmtUSD(monthly.Total()), fmtPct(monthly.StatefulShare()))
	}
	if azStateful > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"AWS-Step transition cost is %.0f%% lower than Az-Dorch's transaction cost (paper: ~83%% lower)",
			(1-awsStateful/azStateful)*100))
	}
	return r, nil
}

// monthlyBill deploys the 20-worker workflow and simulates a window
// with periodic runs, pricing everything metered in the window
// (including idle polling between runs).
func monthlyBill(o Options, impl core.Impl, window, interval time.Duration, runs int) (pricing.Bill, error) {
	env := core.NewEnv(o.Seed)
	wf := videoproc.New(20)
	dep, err := wf.Deploy(env, impl)
	if err != nil {
		return pricing.Bill{}, err
	}
	var runErr error
	env.K.Spawn("monthly", func(p *sim.Proc) {
		for i := 0; i < runs; i++ {
			if _, err := dep.Runner.Invoke(p, nil); err != nil {
				runErr = err
				return
			}
			p.Sleep(interval)
		}
	})
	env.K.RunUntil(window)
	env.Stop()
	env.K.Run() // drain listeners
	if runErr != nil {
		return pricing.Bill{}, runErr
	}

	// Everything metered in the window is cumulative usage; the style's
	// registered backend and price book turn it into the monthly bill
	// without any per-cloud branching here.
	return env.BookFor(impl).Bill(env.UsageFor(impl)), nil
}
