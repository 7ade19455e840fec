// Command statebench regenerates the paper's tables and figures from
// the simulated measurement campaigns.
//
// Usage:
//
//	statebench [flags] [experiment...]
//	statebench trace -impl <style> -workflow <wf> [-runs N] [-o trace.json]
//	statebench chaos -impl <style>|all -workflow <wf> [-seed N] [-faultrate R]
//	statebench traffic [-tenants N] [-rate R] [-duration D] [-process P] [-shards S]
//	statebench graph [-o FILE] <workflow>
//	statebench optimize [-slo D] [-budget USD] [-csv FILE]
//	statebench providers
//
// With no arguments every experiment runs in paper order. Experiments:
// table1, table2, fig6, fig7, fig8, fig9, fig10, fig11, fig12, fig13,
// fig14, fig15, table3.
//
// The providers subcommand lists every registered cloud provider and
// its implementation styles. Providers self-register from package init,
// so the listing (and the -impl choices of trace/chaos) grows when a
// new provider package is linked in, with no CLI changes.
//
// The trace subcommand runs one workflow/style campaign with the span
// tracer enabled and writes a Chrome trace-event file loadable in
// chrome://tracing or Perfetto.
//
// The chaos subcommand runs one workflow under a deterministic injected
// fault schedule and prints the reliability table (success rate,
// retries, redeliveries, dead letters, tail/cost inflation).
//
// The graph subcommand renders a workflow's provider-neutral IR as
// Graphviz DOT plus a one-line-per-style lowering summary derived from
// the lowerer registry (compiled program size, provider caps, or the
// reason a style is excluded) and the static payload lint.
//
// The optimize subcommand runs the cross-cloud cost/latency optimizer:
// it sweeps every workload family's configuration space (style ×
// provider × memory tier × fan-out × chunking) on one shared payload
// engine — identical stage computations run once per sweep, and
// configurations that are provably indistinguishable (an unbilled
// memory tier, a fan-out a monolith ignores) share one measurement —
// and prints each family's Pareto frontier over (p50 latency, mean
// cost) with cheapest-under-SLO and fastest-under-budget picks. The
// full candidate record, including the dominated set and every
// statically excluded configuration with its reason, goes to -csv.
//
// The traffic subcommand drives open-loop arrival streams (Poisson,
// bursty MMPP, diurnal) over a large tenant population — a million by
// default — against every registered provider's serving model, and
// reports tail latency, cold-start rate, scale-controller backlog, and
// per-tenant cost. Rows are byte-identical at any -shards value.
//
// Flags:
//
//	-quick        use the fast smoke-scale campaign sizes
//	-csv          emit CSV instead of text tables
//	-iters N      override the per-style iteration count
//	-seed N       simulation master seed
//	-parallel N   campaign worker pool size (0 = GOMAXPROCS, 1 = sequential)
//	-metrics FILE collect runtime metrics, write Prometheus text to FILE
//	-timeline FILE collect windowed telemetry, write per-window CSV
//	              (JSON when FILE ends in .json) to FILE
//	-live ADDR    serve live telemetry (Prometheus /metrics, per-window
//	              /timeseries.csv, /progress) on ADDR while the run is up
//	-pprof MODE   write a runtime profile: cpu|heap|mutex
//	-payload-cache on|off  memoize workload payload computation (default on)
//	-list         list experiment IDs and exit
//
// Campaign seeds derive from -seed alone, so -parallel changes
// wall-clock time only: the rendered output is byte-identical at any
// worker count — including the contents of -metrics FILE and
// -timeline FILE, whose aggregation is commutative.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"statebench/internal/experiments"
	"statebench/internal/obs/metrics"
	"statebench/internal/obs/tseries"
	"statebench/internal/payload"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		runTrace(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		runChaos(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "providers" {
		runProviders()
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "traffic" {
		runTraffic(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "graph" {
		runGraph(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "optimize" {
		runOptimize(os.Args[2:])
		return
	}

	quick := flag.Bool("quick", false, "use fast smoke-scale campaign sizes")
	iters := flag.Int("iters", 0, "override per-style iteration count")
	seed := flag.Uint64("seed", 42, "simulation master seed")
	workers := flag.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS, 1 = sequential)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	csv := flag.Bool("csv", false, "emit CSV instead of text tables")
	metricsOut := flag.String("metrics", "", "collect runtime metrics and write Prometheus text to this file")
	timelineOut := flag.String("timeline", "", "collect windowed telemetry and write per-window CSV (JSON when the name ends in .json) to this file")
	liveAddr := flag.String("live", "", "serve live telemetry on this address while the run is up (e.g. :8080 or 127.0.0.1:0)")
	pprofMode := flag.String("pprof", "", "write a runtime profile: cpu|heap|mutex (statebench.<mode>.pprof)")
	payloadCache := flag.String("payload-cache", "on", "memoize workload payload computation: on|off (off recomputes every payload; output is byte-identical either way)")
	flag.Parse()

	if *list {
		for _, r := range experiments.RegistryWithAblations() {
			fmt.Println(r.ID)
		}
		return
	}

	opts := experiments.DefaultOptions()
	if *quick {
		opts = experiments.QuickOptions()
	}
	if *iters > 0 {
		opts.Iters = *iters
	}
	opts.Seed = *seed
	opts.Workers = *workers
	switch *payloadCache {
	case "on":
		// Leave opts.PayloadCache nil: RunAll creates a fresh engine per
		// invocation, so the run is cache-cold but shares computations
		// across its impls, providers, and repetitions.
	case "off":
		opts.PayloadCache = payload.Disabled()
	default:
		fmt.Fprintf(os.Stderr, "statebench: -payload-cache must be on or off, got %q\n", *payloadCache)
		os.Exit(2)
	}
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		opts.Metrics = reg
	}

	stopProfile, err := startProfile(*pprofMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statebench:", err)
		os.Exit(2)
	}
	defer stopProfile()

	var tlc *tseries.Collector
	if *timelineOut != "" || *liveAddr != "" {
		tlc = tseries.NewCollector(0)
		opts.Timeline = tlc
	}
	if *liveAddr != "" {
		live, err := tseries.ServeLive(*liveAddr, tlc.Snapshot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "statebench:", err)
			os.Exit(1)
		}
		defer live.Close()
		fmt.Fprintf(os.Stderr, "statebench: live telemetry on http://%s/\n", live.Addr())
	}

	flushMetrics := func() {
		if reg != nil {
			if err := writeMetricsFile(*metricsOut, reg); err != nil {
				fmt.Fprintln(os.Stderr, "statebench:", err)
				os.Exit(1)
			}
		}
		if tlc != nil && *timelineOut != "" {
			if err := writeTimelineFile(*timelineOut, tlc); err != nil {
				fmt.Fprintln(os.Stderr, "statebench:", err)
				os.Exit(1)
			}
		}
	}

	// No IDs runs the paper's experiments. Otherwise resolve every
	// requested ID first, then fan the selection out the same way.
	runners := experiments.Registry()
	if ids := flag.Args(); len(ids) > 0 {
		runners = make([]experiments.Runner, 0, len(ids))
		for _, id := range ids {
			runner, err := experiments.Find(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, "statebench:", err)
				os.Exit(1)
			}
			runners = append(runners, runner)
		}
	}
	reports, err := experiments.RunAll(runners, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statebench:", err)
		os.Exit(1)
	}
	for _, r := range reports {
		if *csv {
			fmt.Print(r.CSV())
		} else {
			fmt.Println(r)
		}
	}
	flushMetrics()
}

// writeTimelineFile renders the collector's merged per-window series,
// as CSV by default or JSON when the file name says so.
func writeTimelineFile(path string, c *tseries.Collector) error {
	s, _ := c.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := s.WriteCSV
	if strings.HasSuffix(path, ".json") {
		werr = s.WriteJSON
	}
	if err := werr(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
