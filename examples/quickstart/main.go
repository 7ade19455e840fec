// Quickstart: deploy one three-step workflow on both simulated clouds
// — as an AWS Step Functions state machine and as an Azure Durable
// orchestration — run it, and compare latency and cost.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"statebench/internal/aws/sfn"
	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/cloud/faas"
	"statebench/internal/core"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// The workflow: validate -> transform -> store, each ~200 ms of compute.
const stepCost = 200 * time.Millisecond

func main() {
	if err := run(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}

// run deploys and runs the workflow on both clouds and writes the
// comparison to w.
func run(w io.Writer) error {
	env := core.NewEnv(7)

	// --- AWS deployment: three Lambdas chained by a state machine.
	for _, name := range []string{"validate", "transform", "store"} {
		env.AWS().Lambda.MustRegister(faas.Config{
			Name: name, MemoryMB: 512, ConsumedMemMB: 200,
			Handler: func(ctx *faas.Context, payload []byte) ([]byte, error) {
				ctx.Busy(stepCost)
				return payload, nil
			},
		})
	}
	machine := &sfn.StateMachine{
		StartAt: "Validate",
		States: map[string]*sfn.State{
			"Validate":  {Type: sfn.TypeTask, Resource: "validate", Next: "Transform"},
			"Transform": {Type: sfn.TypeTask, Resource: "transform", Next: "Store"},
			"Store":     {Type: sfn.TypeTask, Resource: "store", End: true},
		},
	}
	if err := env.AWS().SFN.CreateStateMachine("quickstart", machine); err != nil {
		return err
	}

	// --- Azure deployment: three activities chained by an orchestrator.
	hub := env.Azure().Hub
	for _, name := range []string{"validate", "transform", "store"} {
		if err := hub.RegisterActivity(name, 200, func(ctx *functions.Context, payload []byte) ([]byte, error) {
			ctx.Busy(stepCost)
			return payload, nil
		}); err != nil {
			return err
		}
	}
	if err := hub.RegisterOrchestrator("quickstart", 150, func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
		v, err := ctx.CallActivity("validate", input).Await()
		if err != nil {
			return nil, err
		}
		t, err := ctx.CallActivity("transform", v).Await()
		if err != nil {
			return nil, err
		}
		return ctx.CallActivity("store", t).Await()
	}); err != nil {
		return err
	}

	// --- Run both and compare.
	var awsExec *sfn.Execution
	var azHandle *durable.Handle
	var err error
	env.K.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		awsExec, err = env.AWS().SFN.StartExecution(p, "quickstart", map[string]any{"order": float64(42)})
		if err != nil {
			return
		}
		_, azHandle, err = env.Azure().Client.Run(p, "quickstart", []byte(`{"order":42}`))
	})
	env.K.Run()
	if err != nil {
		return err
	}

	awsMeter := env.AWS().Lambda.TotalMeter()
	azMeter := env.Azure().Host.TotalMeter()
	awsBill := pricing.DefaultAWS().AWSBill(awsMeter.BilledGBs, awsMeter.Invocations, env.AWS().SFN.TotalTransitions, 0)
	azBill := pricing.DefaultAzure().AzureBill(azMeter.BilledGBs, azMeter.Invocations, env.Azure().StorageTransactions(), 0)

	fmt.Fprintln(w, "three-step workflow, one run on each cloud:")
	fmt.Fprintf(w, "  AWS Step Functions: %-10v (%d transitions)  %v\n", awsExec.Duration(), awsExec.Transitions, awsBill)
	fmt.Fprintf(w, "  Azure Durable:      %-10v (cold start %v)    %v\n", azHandle.E2E(), azHandle.ColdStart(), azBill)
	fmt.Fprintln(w)
	fmt.Fprintln(w, "the Azure bill includes the task hub's queue polling — the")
	fmt.Fprintln(w, "stateful cost component the paper characterizes.")
	return nil
}
