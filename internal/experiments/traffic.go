package experiments

import (
	"fmt"
	"slices"
	"time"

	"statebench/internal/core"
	"statebench/internal/parallel"
	"statebench/internal/traffic"
)

// This file holds the traffic experiment: open-loop arrival streams
// over a large tenant population against every registered provider
// that publishes a traffic profile (ProviderSpec.Traffic). Like
// crosscloud, the campaign list is registry-derived — a provider
// appears here by registering a profile, with no edit to this driver —
// and it is not part of the paper's output: run it with
// `statebench traffic` or as the `traffic` experiment ID.
//
// Where the closed-loop campaigns (core.Measure) send one request and
// wait, the open-loop engine keeps arrivals coming whether or not the
// platform keeps up, so cold-start amplification and scale-controller
// backlog become visible as tail latency rather than per-iteration
// means. All latency aggregates are streaming histograms; the report
// is byte-identical at any Workers setting.

// TrafficProcesses builds the arrival-process grid for a mean rate:
// Poisson, bursty (MMPP2) and diurnal, in that order. The burst/dwell
// and diurnal shapes are fixed so reports are comparable across
// providers and scales.
func TrafficProcesses(rate float64, window time.Duration) []traffic.ArrivalProcess {
	return []traffic.ArrivalProcess{
		traffic.Poisson{Rate: rate},
		// Dwell-weighted mean = (rate/2·20s + 3·rate·5s)/25s = rate.
		&traffic.MMPP2{
			BaseRate: rate / 2, BurstRate: 3 * rate,
			BaseDwell: 20 * time.Second, BurstDwell: 5 * time.Second,
		},
		// One full "day" per window keeps the realized mean at rate.
		traffic.Diurnal{Base: rate, Amp: 0.6, Period: window},
	}
}

// TrafficHeader and TrafficRow lay out one open-loop campaign per row.
// The traffic subcommand's report (cli) adds the run's kernel event
// count after arrivals and rounds the total cost to cents, the unit of
// its million-tenant runs.
func TrafficHeader(cli bool) []string {
	h := []string{
		"provider", "serving", "process", "arrivals", "cold",
		"p50", "p99", "p99.9", "sched p99", "peak backlog",
		"tenant cost p99", "total cost",
	}
	if cli {
		h = slices.Insert(h, 4, "events")
	}
	return h
}

// TrafficRow formats one campaign's result under TrafficHeader(cli).
func TrafficRow(provider string, res *traffic.Result, cli bool) []string {
	total := fmtUSD(res.TotalBill.Total())
	if cli {
		total = fmt.Sprintf("$%.2f", res.TotalBill.Total())
	}
	row := []string{
		provider,
		res.Style.String(),
		res.Process,
		fmt.Sprintf("%d", res.Arrivals),
		fmtPct(res.ColdRate()),
		fmtDur(res.E2E.Median()),
		fmtDur(res.E2E.P99()),
		fmtDur(res.E2E.P999()),
		fmtDur(res.QueueWait.P999()),
		fmt.Sprintf("%d", res.PeakBacklog),
		fmtUSD(float64(res.TenantCost.P99()) / 1e9),
		total,
	}
	if cli {
		row = slices.Insert(row, 4, fmt.Sprintf("%d", res.Events))
	}
	return row
}

// TrafficSweep runs the arrival-process grid against every provider
// with a registered traffic profile and tabulates tail latency,
// cold-start rate, scheduling backlog, and tenant-level cost. Scale
// derives from o.Iters so -quick shrinks it like every other
// experiment: tenants = 200·Iters, mean rate = 40·Iters per second
// over a fixed two-minute window.
func TrafficSweep(o Options) (*Report, error) {
	tenants := 200 * o.Iters
	rate := 40 * float64(o.Iters)
	window := 2 * time.Minute

	type campaign struct {
		provider string
		cfg      traffic.Config
	}
	var campaigns []campaign
	for _, spec := range core.Providers() {
		if spec.Traffic == nil {
			continue
		}
		for _, proc := range TrafficProcesses(rate, window) {
			campaigns = append(campaigns, campaign{
				provider: spec.Name,
				cfg: traffic.Config{
					Tenants:    tenants,
					Duration:   window,
					Process:    proc,
					Profile:    spec.Traffic(),
					Book:       spec.DefaultBook(),
					CodeSizeMB: 64,
					// Campaign seeds derive from o.Seed and the grid
					// position alone, so Workers never changes results.
					Seed: o.Seed + uint64(len(campaigns)),
				},
			})
		}
	}

	r := &Report{
		ID: "traffic",
		Title: fmt.Sprintf("Open-loop traffic, %d tenants × %.0f req/s over %v (%d providers with profiles)",
			tenants, rate, window, len(campaigns)/3),
	}
	r.Table.Header = TrafficHeader(false)
	rows, err := parallel.Map(o.Workers, len(campaigns), func(i int) ([]string, error) {
		c := campaigns[i]
		res := traffic.Run(c.cfg)
		if res.Completions != res.Arrivals {
			return nil, fmt.Errorf("traffic: %s/%s leaked %d invocations",
				c.provider, res.Process, res.Arrivals-res.Completions)
		}
		return TrafficRow(c.provider, res, false), nil
	})
	if err != nil {
		return nil, err
	}
	r.Table.Rows = append(r.Table.Rows, rows...)
	r.Notes = append(r.Notes,
		"open-loop: arrivals keep coming whether or not the platform keeps up, so cold starts and controller backlog surface as tail latency",
		"latency aggregates are streaming histograms (≤0.8% relative error); rows are byte-identical at any -parallel",
		"campaign list is registry-derived: providers appear by publishing a traffic profile in their ProviderSpec")
	return r, nil
}
