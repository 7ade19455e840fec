package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"statebench/internal/core"
	"statebench/internal/experiments"
	"statebench/internal/obs"
	"statebench/internal/obs/tseries"
	"statebench/internal/sim"
	"statebench/internal/traffic"
)

// runTraffic implements "statebench traffic": open-loop arrival
// streams over a large tenant population against every registered
// provider with a traffic profile, reporting tail latency, cold-start
// rate, scale-controller backlog, and per-tenant cost. Unlike the
// fixed-scale `traffic` experiment ID, this subcommand exposes the
// engine's knobs (population, rate, process shape) — the
// million-tenant runs in EXPERIMENTS.md go through here. The report
// goes to w; a CSV report depends only on the flags and the seed,
// while the text report's notes add each run's host event rate and
// the peak RSS.
func runTraffic(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("traffic", flag.ExitOnError)
	tenants := fs.Int("tenants", 1_000_000, "simulated tenant population")
	window := fs.Duration("duration", 2*time.Minute, "arrival window (virtual time); the run then drains")
	rate := fs.Float64("rate", 50_000, "mean aggregate arrival rate (req/s)")
	process := fs.String("process", "poisson", "arrival process: poisson|bursty|diurnal|all")
	providerFlag := fs.String("provider", "all", "provider name or all")
	seed := fs.Uint64("seed", 42, "simulation seed")
	codeMB := fs.Float64("codesize", 64, "deployment package size (MB), paid on per-request cold starts")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	timelineOut := fs.String("timeline", "", "record windowed telemetry and write per-window CSV (JSON when the name ends in .json) to this file")
	liveAddr := fs.String("live", "", "serve live telemetry on this address while the run is up; snapshots publish at every window boundary")
	_ = fs.Parse(args)

	// Windowed telemetry: each run records into a private series; the
	// live endpoint sees finished runs plus a rolling snapshot of the
	// current one, published at window boundaries by the engine's
	// OnWindow hook (outside the event order, so results are unchanged).
	var tlc *tseries.Collector
	var done *tseries.Series
	if *timelineOut != "" || *liveAddr != "" {
		tlc = tseries.NewCollector(0)
		done = tseries.New(tlc.Interval())
	}
	if *liveAddr != "" {
		live, err := tseries.ServeLive(*liveAddr, tlc.Snapshot)
		if err != nil {
			return err
		}
		defer live.Close()
		fmt.Fprintf(os.Stderr, "statebench traffic: live telemetry on http://%s/\n", live.Addr())
	}

	procs := map[string]func() traffic.ArrivalProcess{
		"poisson": func() traffic.ArrivalProcess { return traffic.Poisson{Rate: *rate} },
		"bursty": func() traffic.ArrivalProcess {
			// Dwell-weighted mean = (rate/2·20s + 3·rate·5s)/25s = rate.
			return &traffic.MMPP2{
				BaseRate: *rate / 2, BurstRate: 3 * *rate,
				BaseDwell: 20 * time.Second, BurstDwell: 5 * time.Second,
			}
		},
		"diurnal": func() traffic.ArrivalProcess {
			return traffic.Diurnal{Base: *rate, Amp: 0.6, Period: *window}
		},
	}
	procNames := []string{"poisson", "bursty", "diurnal"}
	if *process != "all" {
		if _, ok := procs[*process]; !ok {
			return fmt.Errorf("unknown process %q (want poisson|bursty|diurnal|all)", *process)
		}
		procNames = []string{*process}
	}

	var specs []*core.ProviderSpec
	for _, spec := range core.Providers() {
		if spec.Traffic == nil {
			continue
		}
		if *providerFlag != "all" && !strings.EqualFold(spec.Name, *providerFlag) {
			continue
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return fmt.Errorf("no registered provider matches %q (see `statebench providers`)", *providerFlag)
	}

	r := &experiments.Report{
		ID: "traffic",
		Title: fmt.Sprintf("Open-loop traffic: %d tenants × %.0f req/s over %v, seed %d",
			*tenants, *rate, *window, *seed),
	}
	r.Table.Header = []string{
		"provider", "serving", "process", "arrivals", "events",
		"cold", "p50", "p99", "p99.9", "sched p99", "peak backlog",
		"tenant cost p99", "total cost",
	}
	var totalEvents uint64
	var rates []string
	campaign := 0
	for _, spec := range specs {
		for _, name := range procNames {
			cfg := traffic.Config{
				Tenants:    *tenants,
				Duration:   *window,
				Process:    procs[name](),
				Profile:    spec.Traffic(),
				Book:       spec.DefaultBook(),
				CodeSizeMB: *codeMB,
				Seed:       *seed + uint64(campaign),
			}
			if tlc != nil {
				tl := tseries.New(tlc.Interval())
				cfg.Timeline = tl
				runPhase := fmt.Sprintf("%s/%s", spec.Name, name)
				cfg.OnWindow = func(boundary sim.Time) {
					snap := done.Clone()
					snap.Merge(tl)
					tlc.Replace(snap)
					arr, comp, _, _ := snap.Totals()
					tlc.SetProgress(tseries.Progress{
						Phase:       runPhase,
						Done:        campaign,
						Total:       len(specs) * len(procNames),
						VirtualTime: boundary,
						VirtualEnd:  *window,
						Arrivals:    arr,
						Completions: comp,
					})
				}
			}
			campaign++
			start := time.Now()
			res := traffic.Run(cfg)
			wall := time.Since(start)
			if tlc != nil {
				done.Merge(cfg.Timeline)
				tlc.Replace(done.Clone())
			}
			res.Cloud = spec.Name
			totalEvents += res.Events
			rates = append(rates, fmt.Sprintf("%s/%s %.1f", spec.Name, res.Process, float64(res.Events)/1e6/wall.Seconds()))
			r.Table.AddRow(
				spec.Name,
				res.Style.String(),
				res.Process,
				fmt.Sprintf("%d", res.Arrivals),
				fmt.Sprintf("%d", res.Events),
				fmt.Sprintf("%.1f%%", 100*res.ColdRate()),
				obs.FormatDuration(res.E2E.Median()),
				obs.FormatDuration(res.E2E.P99()),
				obs.FormatDuration(res.E2E.P999()),
				obs.FormatDuration(res.QueueWait.P999()),
				fmt.Sprintf("%d", res.PeakBacklog),
				fmt.Sprintf("$%.6f", float64(res.TenantCost.P99())/1e9),
				fmt.Sprintf("$%.2f", res.TotalBill.Total()),
			)
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("%d kernel events total; host rate per run, millions of events per wall-clock second: %s",
			totalEvents, strings.Join(rates, ", ")))
	if rss, ok := peakRSSMB(); ok {
		r.Notes = append(r.Notes, fmt.Sprintf("peak RSS %d MB", rss))
	}
	if *csv {
		fmt.Fprint(w, r.CSV())
	} else {
		fmt.Fprintln(w, r)
	}
	if tlc != nil && *timelineOut != "" {
		return writeTimelineFile(*timelineOut, tlc)
	}
	return nil
}

// peakRSSMB reads the process high-water resident set from
// /proc/self/status (Linux only; absence just drops the note).
func peakRSSMB() (int64, bool) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
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
