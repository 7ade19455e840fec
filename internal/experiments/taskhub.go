package experiments

import (
	"fmt"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/azure/netherite"
	"statebench/internal/chaos"
	"statebench/internal/core"
	"statebench/internal/obs"
	"statebench/internal/parallel"
	"statebench/internal/platform"
	"statebench/internal/sim"
	"statebench/internal/traffic"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
)

// This file holds the `netherite` experiment: the classic Azure Storage
// task hub measured head-to-head against the Netherite backend
// (internal/azure/netherite) behind the same Durable Task hub. Two
// sections: a closed-loop campaign at paper scale under the default
// fault schedule, and an open-loop Poisson arrival stream that exposes
// the queue-bound episode-throughput gap the closed-loop means hide.
// Like crosscloud, the closed-loop campaign list is registry-derived —
// the Netherite styles appear because internal/azure/netherite
// registered them, with no provider named here — and the experiment is
// not part of the paper's output: run it with `statebench netherite`.

// taskHubProviders are the providers whose stateful styles share the
// Durable Task hub and differ only in the Store behind it.
var taskHubProviders = map[string]bool{"Azure": true, "Netherite": true}

// NetheriteHubs produces the classic-vs-Netherite comparison reports.
func NetheriteHubs(o Options) ([]*Report, error) {
	closed, err := netheriteClosedLoop(o)
	if err != nil {
		return nil, err
	}
	open, err := netheriteOpenLoop(o)
	if err != nil {
		return nil, err
	}
	return []*Report{closed, open}, nil
}

// netheriteClosedLoop measures the ML training workload on every
// registered task-hub style under the default chaos plan (which since
// PR 8 carries the netherite commit-crash and transport-duplicate
// rules), contrasting latency, cost, storage transactions, and wasted
// speculative work.
func netheriteClosedLoop(o Options) (*Report, error) {
	rate := DefaultFaultRate
	plan := chaos.DefaultPlan(rate)
	wf := mltrain.New(mlpipe.Small)

	type campaign struct {
		impl     core.Impl
		provider string
	}
	var campaigns []campaign
	for _, impl := range core.RegisteredImpls() {
		info, ok := core.StyleOf(impl)
		if !ok || !info.Stateful || !core.SupportsImpl(wf, impl) {
			continue
		}
		spec, ok := core.Provider(info.Kind)
		if !ok || !taskHubProviders[spec.Name] {
			continue
		}
		campaigns = append(campaigns, campaign{impl, spec.Name})
	}

	r := &Report{
		ID: "netherite",
		Title: fmt.Sprintf("Task-hub backends: classic storage queues vs Netherite commit logs (ML training, chaos rate %.0f%%)",
			rate*100),
	}
	r.Table.Header = []string{
		"task hub", "style", "ok-rate", "p50", "p99",
		"mean cost", "stateful txns/run", "wasted specs", "recovered",
	}
	rows, err := parallel.Map(o.Workers, len(campaigns), func(i int) ([]string, error) {
		c := campaigns[i]
		opt := measureOpts(o)
		opt.Chaos = plan
		s, err := core.Measure(wf, c.impl, opt)
		if err != nil {
			return nil, err
		}
		recovered := 1.0
		if s.Faults.Injected > 0 {
			recovered = 1 - float64(s.Errors)/float64(s.Faults.Injected)
			if recovered < 0 {
				recovered = 0
			}
		}
		return []string{
			c.provider,
			string(c.impl),
			fmtPct(s.SuccessRate),
			fmtDur(s.E2E.Median()),
			fmtDur(s.E2E.P99()),
			fmtUSD(s.MeanBill.Total()),
			fmt.Sprintf("%.0f", s.MeanTxns),
			fmt.Sprintf("%d", s.Faults.WastedWork),
			fmtPct(recovered),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Table.Rows = append(r.Table.Rows, rows...)
	r.Notes = append(r.Notes,
		"campaign list is registry-derived: the Netherite styles appear because internal/azure/netherite registered them, with no provider named in this driver",
		"stateful txns/run contrasts per-operation queue+table traffic against group commits (one billed append per non-empty commit window)",
		"wasted specs counts speculative history records discarded by chaos-injected commit-batch loss (statebench_chaos_wasted_speculation_total)")
	return r, nil
}

// netheriteOpenLoop drives a Poisson arrival stream of dense micro
// chains into each hub: open-loop, so episode-throughput limits surface
// as completion backlog instead of stretching a closed-loop mean. This
// is the regime where push delivery and group commits beat adaptive
// polling — the ≥5x episode-throughput target bench-netherite pins.
func netheriteOpenLoop(o Options) (*Report, error) {
	rate := float64(o.Iters)   // arrivals/sec
	window := 30 * time.Second // arrival window (virtual)
	const steps, perStep = 3, 20 * time.Millisecond

	type campaign struct {
		hub     string
		process traffic.ArrivalProcess
	}
	campaigns := []campaign{
		{"Azure", traffic.Poisson{Rate: rate}},
		{"Netherite", traffic.Poisson{Rate: rate}},
	}

	r := &Report{
		ID: "netherite-openloop",
		Title: fmt.Sprintf("Open-loop Poisson %.0f req/s × %v, %d-step micro-chains (%d ms/step), classic vs Netherite",
			rate, window, steps, perStep/time.Millisecond),
	}
	r.Table.Header = []string{
		"task hub", "process", "arrivals", "p50", "p99",
		"episodes", "storage txns", "txns/orch",
	}
	rows, err := parallel.Map(o.Workers, len(campaigns), func(i int) ([]string, error) {
		c := campaigns[i]
		// Same seed for every hub: both replay the identical arrival
		// schedule, so the rows differ only by task-hub behavior.
		res, err := runOpenLoopChains(o.Seed, c.hub == "Netherite", c.process, window, steps, perStep)
		if err != nil {
			return nil, err
		}
		return []string{
			c.hub,
			c.process.String(),
			fmt.Sprintf("%d", res.arrivals),
			fmtDur(res.e2e.Median()),
			fmtDur(res.e2e.P99()),
			fmt.Sprintf("%d", res.episodes),
			fmt.Sprintf("%d", res.txns),
			fmt.Sprintf("%.1f", float64(res.txns)/float64(res.arrivals)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Table.Rows = append(r.Table.Rows, rows...)
	r.Notes = append(r.Notes,
		"open-loop: arrivals keep coming whether or not the hub keeps up; a polling transport's dispatch latency compounds into tail backlog",
		"txns/orch is the paper's stateful-transaction cost per workflow — group commits amortize it across every orchestration active in the same 20 ms window")
	return r, nil
}

type openLoopResult struct {
	arrivals int
	episodes int64
	txns     int64
	e2e      obs.Samples
}

// runOpenLoopChains fires process-timed StartOrchestration calls at a
// hub for window, then drains every in-flight chain and reports
// completion latency and storage-transaction totals.
func runOpenLoopChains(seed uint64, useNetherite bool, process traffic.ArrivalProcess, window time.Duration, steps int, perStep time.Duration) (*openLoopResult, error) {
	k := sim.NewKernel(seed)
	params := platform.DefaultAzure()
	host := functions.NewHost(k, "openloop-app", params)
	var hub *durable.Hub
	if useNetherite {
		hub = durable.NewHubWithStore(k, host, "openloop-hub",
			netherite.NewStore(k, "openloop-hub"))
	} else {
		hub = durable.NewHub(k, host, "openloop-hub")
	}
	client := durable.NewClient(hub)

	if err := hub.RegisterActivity("step", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(perStep)
		return in, nil
	}); err != nil {
		return nil, err
	}
	if err := hub.RegisterOrchestrator("chain", 128, func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
		v := input
		for i := 0; i < steps; i++ {
			out, err := ctx.CallActivity("step", v).Await()
			if err != nil {
				return nil, err
			}
			v = out
		}
		return v, nil
	}); err != nil {
		return nil, err
	}

	res := &openLoopResult{}
	var runErr error
	done := 0
	k.Spawn("arrivals", func(p *sim.Proc) {
		rng := k.Stream("openloop/arrivals")
		for {
			next := process.Next(rng, p.Now())
			if next > sim.Time(window) {
				break
			}
			p.Sleep(time.Duration(next - p.Now()))
			// Open loop: the start itself runs on its own proc, so hub
			// backpressure (instance saturation, submit latency) never
			// throttles the arrival schedule — it surfaces as latency.
			n := res.arrivals
			res.arrivals++
			k.Spawn(fmt.Sprintf("starter-%d", n), func(sp *sim.Proc) {
				hd, err := client.StartOrchestration(sp, "chain", []byte("x"))
				if err != nil {
					if runErr == nil {
						runErr = err
					}
					done++
					return
				}
				if _, err := hd.Wait(sp); err != nil && runErr == nil {
					runErr = err
				}
				res.e2e.Add(hd.E2E())
				done++
			})
		}
		// Drain: every started chain must complete before the hub stops.
		for done < res.arrivals {
			p.Sleep(time.Second)
		}
		host.Stop()
	})
	k.Run()
	if runErr != nil {
		return nil, runErr
	}
	res.episodes = hub.EpisodeCount
	res.txns = hub.StorageTransactions()
	return res, nil
}
