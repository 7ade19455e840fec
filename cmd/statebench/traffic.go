package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"statebench/internal/core"
	"statebench/internal/experiments"
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
	// A rate that is not positive and finite gives no next arrival:
	// every gap would be infinite or negative, and the arrival chain
	// would queue arrivals at the current instant without end.
	if !(*rate > 0) || math.IsInf(*rate, 1) {
		return fmt.Errorf("-rate %v: want a positive, finite arrival rate (req/s)", *rate)
	}

	// Windowed telemetry: each run records into a private series; the
	// live endpoint sees finished runs plus a rolling snapshot of the
	// current one, published at window boundaries by the engine's
	// OnWindow hook (outside the event order, so results are unchanged).
	var tlc *tseries.Collector
	if *timelineOut != "" || *liveAddr != "" {
		tlc = tseries.NewCollector(0)
	}
	if *liveAddr != "" {
		live, err := tseries.ServeLive(*liveAddr, tlc.Snapshot)
		if err != nil {
			return err
		}
		defer live.Close()
		fmt.Fprintf(os.Stderr, "statebench traffic: live telemetry on http://%s/\n", live.Addr())
	}

	// The processes, in experiments.TrafficProcesses' order.
	procNames := []string{"poisson", "bursty", "diurnal"}
	selected := []int{0, 1, 2}
	if *process != "all" {
		i := slices.Index(procNames, *process)
		if i < 0 {
			return fmt.Errorf("unknown process %q (want poisson|bursty|diurnal|all)", *process)
		}
		selected = []int{i}
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
	r.Table.Header = experiments.TrafficHeader(true)
	var live *trafficLive
	if tlc != nil {
		live = newTrafficLive(tlc, len(specs)*len(selected), *window)
	}
	var totalEvents uint64
	var rates []string
	campaign := 0
	for _, spec := range specs {
		procs := experiments.TrafficProcesses(*rate, *window)
		for _, i := range selected {
			cfg := traffic.Config{
				Tenants:    *tenants,
				Duration:   *window,
				Process:    procs[i],
				Profile:    spec.Traffic(),
				Book:       spec.DefaultBook(),
				CodeSizeMB: *codeMB,
				Seed:       *seed + uint64(campaign),
			}
			campaign++
			phase := spec.Name + "/" + procNames[i]
			if live != nil {
				live.record(&cfg, phase)
			}
			start := time.Now()
			res := traffic.Run(cfg)
			wall := time.Since(start)
			if live != nil {
				live.finish(cfg, phase)
			}
			totalEvents += res.Events
			rates = append(rates, fmt.Sprintf("%s/%s %.1f", spec.Name, res.Process, float64(res.Events)/1e6/wall.Seconds()))
			r.Table.AddRow(experiments.TrafficRow(spec.Name, res, true)...)
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

// trafficLive publishes a sweep's windowed telemetry and progress to
// the collector behind -live and -timeline: the finished campaigns'
// windows merged with a rolling snapshot of the running one, and the
// number of campaigns that have finished.
type trafficLive struct {
	tlc      *tseries.Collector
	done     *tseries.Series
	window   time.Duration
	total    int
	finished int
}

func newTrafficLive(tlc *tseries.Collector, total int, window time.Duration) *trafficLive {
	return &trafficLive{tlc: tlc, done: tseries.New(tlc.Interval()), window: window, total: total}
}

// record makes cfg's run record its windows and publish them, with the
// sweep's progress, at every window boundary.
func (l *trafficLive) record(cfg *traffic.Config, phase string) {
	tl := tseries.New(l.tlc.Interval())
	cfg.Timeline = tl
	cfg.OnWindow = func(boundary sim.Time) {
		snap := l.done.Clone()
		snap.Merge(tl)
		l.publish(snap, phase, boundary)
	}
}

// finish merges a finished run's windows and counts it done.
func (l *trafficLive) finish(cfg traffic.Config, phase string) {
	l.done.Merge(cfg.Timeline)
	l.finished++
	l.publish(l.done.Clone(), phase, l.window)
}

func (l *trafficLive) publish(snap *tseries.Series, phase string, at sim.Time) {
	l.tlc.Replace(snap)
	arr, comp, _, _ := snap.Totals()
	l.tlc.SetProgress(tseries.Progress{
		Phase:       phase,
		Done:        l.finished,
		Total:       l.total,
		VirtualTime: at,
		VirtualEnd:  l.window,
		Arrivals:    arr,
		Completions: comp,
	})
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
