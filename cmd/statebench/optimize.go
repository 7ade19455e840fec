package main

import (
	"flag"
	"fmt"
	"os"

	"statebench/internal/experiments"
	"statebench/internal/obs/metrics"
	"statebench/internal/optimizer"
	"statebench/internal/payload"
)

// runOptimize implements "statebench optimize": sweep every workload
// family's configuration space (style × provider × memory × fan-out ×
// chunking) on one shared payload engine, and print each family's
// Pareto frontier with cheapest-under-SLO and fastest-under-budget
// picks. -csv FILE additionally writes the complete candidate record —
// frontier, dominated set, and statically excluded configurations with
// their reasons — for plotting pipelines. Output is byte-identical at
// any -parallel setting.
func runOptimize(args []string) {
	fs := flag.NewFlagSet("optimize", flag.ExitOnError)
	quick := fs.Bool("quick", false, "use fast smoke-scale campaign sizes")
	iters := fs.Int("iters", 0, "override per-candidate iteration count")
	seed := fs.Uint64("seed", 42, "simulation master seed")
	workers := fs.Int("parallel", 0, "candidate worker pool size (0 = GOMAXPROCS, 1 = one candidate at a time)")
	slo := fs.Duration("slo", 0, "latency SLO for the cheapest-config pick (0 = each workload's median p50)")
	budget := fs.Float64("budget", 0, "per-run cost budget in USD for the fastest-config pick (0 = each workload's median cost)")
	csvOut := fs.String("csv", "", "write the full candidate record (frontier, dominated, excluded) as CSV to this file")
	metricsOut := fs.String("metrics", "", "collect runtime metrics and write Prometheus text to this file")
	_ = fs.Parse(args)

	o := experiments.DefaultOptions()
	if *quick {
		o = experiments.QuickOptions()
	}
	if *iters > 0 {
		o.Iters = *iters
	}
	o.Seed = *seed
	o.Workers = *workers
	// One engine for the whole sweep: cross-candidate payload reuse,
	// config-level delta evaluation, and — mirroring RunAll — a single
	// deterministic emission into the metrics registry afterwards.
	o.PayloadCache = payload.NewEngine()
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.NewRegistry()
		o.Metrics = reg
	}

	if *budget < 0 {
		fmt.Fprintln(os.Stderr, "statebench optimize: -budget must be >= 0")
		os.Exit(1)
	}
	if *slo < 0 {
		fmt.Fprintln(os.Stderr, "statebench optimize: -slo must be >= 0")
		os.Exit(1)
	}

	results, err := experiments.OptimizeResults(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statebench optimize:", err)
		os.Exit(1)
	}
	r := experiments.OptimizeReport(results, *slo, *budget)
	fmt.Print(r.String())

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "statebench optimize:", err)
			os.Exit(1)
		}
		if err := optimizer.WriteCSV(f, results); err != nil {
			fmt.Fprintln(os.Stderr, "statebench optimize:", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "statebench optimize:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "statebench optimize: wrote %s\n", *csvOut)
	}
	if reg != nil {
		o.PayloadCache.EmitTo(reg)
		if err := writeMetricsFile(*metricsOut, reg); err != nil {
			fmt.Fprintln(os.Stderr, "statebench optimize:", err)
			os.Exit(1)
		}
	}
}
