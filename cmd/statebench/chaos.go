package main

import (
	"flag"
	"fmt"
	"os"

	"statebench/internal/core"
	"statebench/internal/experiments"
)

// runChaos implements "statebench chaos": run one workflow under a
// deterministic injected-fault schedule and print the reliability table
// (success rate, recovery activity, tail/cost inflation vs a fault-free
// baseline at the same seed). The schedule derives from -seed and
// -faultrate alone, so the output is byte-identical across runs and
// -parallel settings.
func runChaos(args []string) {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	implFlag := fs.String("impl", "all", "implementation style ("+styleList()+"|all)")
	wfFlag := fs.String("workflow", "ml-training-small", "workflow ("+traceWorkflowNames()+")")
	seed := fs.Uint64("seed", 42, "simulation seed")
	rate := fs.Float64("faultrate", experiments.DefaultFaultRate, "per-decision fault injection probability")
	iters := fs.Int("iters", 20, "measured runs per style")
	workers := fs.Int("parallel", 0, "campaign worker pool size (0 = GOMAXPROCS, 1 = one campaign at a time)")
	csv := fs.Bool("csv", false, "emit CSV instead of a text table")
	_ = fs.Parse(args)

	build, ok := traceWorkflows[*wfFlag]
	if !ok {
		fmt.Fprintf(os.Stderr, "statebench chaos: unknown workflow %q (want %s)\n", *wfFlag, traceWorkflowNames())
		os.Exit(1)
	}
	wf := build()
	impls := wf.Impls()
	if *implFlag != "all" {
		impl := core.Impl(*implFlag)
		if !core.SupportsImpl(wf, impl) {
			fmt.Fprintf(os.Stderr, "statebench chaos: workflow %s does not support style %q\n", wf.Name(), *implFlag)
			os.Exit(1)
		}
		impls = []core.Impl{impl}
	}
	if *rate < 0 || *rate > 1 {
		fmt.Fprintln(os.Stderr, "statebench chaos: -faultrate must be in [0,1]")
		os.Exit(1)
	}

	o := experiments.QuickOptions()
	o.Iters = *iters
	o.Seed = *seed
	o.Workers = *workers

	r, err := experiments.ReliabilityFor(wf, impls, o, *rate)
	if err != nil {
		fmt.Fprintln(os.Stderr, "statebench chaos:", err)
		os.Exit(1)
	}
	r.Title = fmt.Sprintf("%s (workflow %s, %d iters, seed %d)", r.Title, wf.Name(), *iters, *seed)
	if *csv {
		fmt.Print(r.CSV())
	} else {
		fmt.Println(r)
	}
}
