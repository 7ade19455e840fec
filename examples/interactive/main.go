// interactive demonstrates the human-in-the-loop pattern the paper
// notes AWS built Step Functions for ("the ability to make it
// interactive with the customers"): a durable purchase-approval
// orchestration that fans work out, waits for an external approval
// event with a timeout, and reacts to whichever comes first.
//
//	go run ./examples/interactive [-approveAfter 2m] [-timeout 10m]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/core"
	"statebench/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "interactive:", err)
		os.Exit(1)
	}
}

// run executes the approval scenario with command-line args and writes
// the outcome to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("interactive", flag.ExitOnError)
	approveAfter := fs.Duration("approveAfter", 2*time.Minute, "when the (simulated) human approves")
	timeout := fs.Duration("timeout", 10*time.Minute, "approval deadline")
	fs.Parse(args)

	env := core.NewEnv(17)
	hub := env.Azure().Hub

	if err := hub.RegisterActivity("prepare-order", 192, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(3 * time.Second)
		return []byte(`{"order":"#1042","total":"$1,299"}`), nil
	}); err != nil {
		return err
	}
	if err := hub.RegisterActivity("fulfil", 192, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(5 * time.Second)
		return []byte("shipped"), nil
	}); err != nil {
		return err
	}

	deadline := *timeout
	if err := hub.RegisterOrchestrator("purchase", 150, func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
		order, err := ctx.CallActivity("prepare-order", input).Await()
		if err != nil {
			return nil, err
		}
		// Race the human against the deadline — the canonical durable
		// interaction pattern.
		approval := ctx.WaitForExternalEvent("ManagerApproval")
		timer := ctx.CreateTimer(deadline)
		if ctx.WaitAny(approval, timer) == 1 {
			return []byte("order expired: no approval before the deadline"), nil
		}
		decision, err := approval.Await()
		if err != nil {
			return nil, err
		}
		if string(decision) != "approve" {
			return []byte("order rejected by manager"), nil
		}
		if _, err := ctx.CallActivity("fulfil", order).Await(); err != nil {
			return nil, err
		}
		return []byte("order approved and shipped"), nil
	}); err != nil {
		return err
	}

	var outcome []byte
	var hd *durable.Handle
	var err error
	env.K.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		hd, err = env.Azure().Client.StartOrchestration(p, "purchase", nil)
		if err != nil {
			return
		}
		// The "human": approves after a while (or never, if the
		// deadline is shorter).
		p.Sleep(*approveAfter)
		if hd.Status() == durable.StatusRunning {
			if err := env.Azure().Client.RaiseEvent(p, hd.ID, "ManagerApproval", []byte("approve")); err != nil {
				fmt.Fprintln(os.Stderr, "raise:", err)
			}
		}
		outcome, err = hd.Wait(p)
	})
	env.K.Run()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "outcome: %s\n", outcome)
	fmt.Fprintf(w, "end-to-end: %v (approval raised at %v, deadline %v)\n", hd.E2E(), *approveAfter, deadline)
	fmt.Fprintf(w, "orchestrator episodes (replays): %d\n", hub.EpisodeCount)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "while the orchestration waited, the task hub kept polling its")
	fmt.Fprintf(w, "queues: %d billable storage transactions accrued.\n", hub.StorageTransactions())
	return nil
}
