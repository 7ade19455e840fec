// Command durablerun demonstrates the simulated Azure Durable Functions
// runtime: it deploys a fan-out/fan-in orchestration with a counter
// entity, runs it, and prints the latency metrics and billed storage
// transactions — including the replay episodes that make durable
// orchestrations cost what they cost.
//
// Usage:
//
//	durablerun [-workers 8] [-busy 500ms] [-seed 1]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "durablerun:", err)
		os.Exit(1)
	}
}

// run deploys and runs the demo with command-line args and writes the
// metrics to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("durablerun", flag.ExitOnError)
	workers := fs.Int("workers", 8, "parallel activities to fan out")
	busy := fs.Duration("busy", 500*time.Millisecond, "simulated compute per activity")
	seed := fs.Uint64("seed", 1, "simulation seed")
	fs.Parse(args)

	k := sim.NewKernel(*seed)
	host := functions.NewHost(k, "demo", platform.DefaultAzure())
	hub := durable.NewHub(k, host, "demo")
	client := durable.NewClient(hub)

	if err := hub.RegisterActivity("work", 256, func(ctx *functions.Context, input []byte) ([]byte, error) {
		ctx.Busy(*busy)
		var n int
		if err := json.Unmarshal(input, &n); err != nil {
			return nil, err
		}
		return json.Marshal(n * n)
	}); err != nil {
		return err
	}

	if err := hub.RegisterEntity("Sum", 128, func(ctx *durable.EntityContext, op string, input []byte) ([]byte, error) {
		var total int
		if ctx.HasState() {
			if err := json.Unmarshal(ctx.State(), &total); err != nil {
				return nil, err
			}
		}
		switch op {
		case "add":
			var v int
			if err := json.Unmarshal(input, &v); err != nil {
				return nil, err
			}
			total += v
			s, _ := json.Marshal(total)
			ctx.SetState(s)
			return nil, nil
		case "get":
			return json.Marshal(total)
		}
		return nil, fmt.Errorf("unknown op %q", op)
	}); err != nil {
		return err
	}

	n := *workers
	if err := hub.RegisterOrchestrator("fanout", 128, func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
		tasks := make([]*durable.Task, n)
		for i := 0; i < n; i++ {
			in, _ := json.Marshal(i + 1)
			tasks[i] = ctx.CallActivity("work", in)
		}
		outs, err := ctx.WaitAll(tasks...)
		if err != nil {
			return nil, err
		}
		sum := durable.EntityID{Name: "Sum", Key: "total"}
		for _, o := range outs {
			if _, err := ctx.CallEntity(sum, "add", o).Await(); err != nil {
				return nil, err
			}
		}
		return ctx.CallEntity(sum, "get", nil).Await()
	}); err != nil {
		return err
	}

	var out []byte
	var hd *durable.Handle
	var runErr error
	k.Spawn("client", func(p *sim.Proc) {
		out, hd, runErr = client.Run(p, "fanout", nil)
		host.Stop()
	})
	k.Run()
	if runErr != nil {
		return runErr
	}

	fmt.Fprintf(w, "result (sum of squares 1..%d): %s\n", n, out)
	fmt.Fprintf(w, "cold start (Pending->Running): %v\n", hd.ColdStart())
	fmt.Fprintf(w, "end-to-end (Running->Completed): %v\n", hd.E2E())
	fmt.Fprintf(w, "orchestrator episodes (replays): %d\n", hub.EpisodeCount)
	fmt.Fprintf(w, "history events re-processed:     %d\n", hub.ReplayEvents)
	fmt.Fprintf(w, "billed storage transactions:     %d\n", hub.StorageTransactions())
	fmt.Fprintf(w, "billed GB-s across functions:    %.4f\n", host.TotalMeter().BilledGBs)
	return nil
}
