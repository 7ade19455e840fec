package durable

import (
	"testing"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/sim"
)

// BenchmarkOrchestrationChain measures a full 3-activity durable
// orchestration including replays, history persistence, and queue
// polling — the per-run cost of the simulated DTFx machinery.
func BenchmarkOrchestrationChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k, host, hub, client := fixture()
		if err := hub.RegisterActivity("w", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
			ctx.Busy(10 * time.Millisecond)
			return in, nil
		}); err != nil {
			b.Fatal(err)
		}
		if err := hub.RegisterOrchestrator("o", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
			for j := 0; j < 3; j++ {
				if _, err := ctx.CallActivity("w", input).Await(); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}); err != nil {
			b.Fatal(err)
		}
		k.Spawn("client", func(p *sim.Proc) {
			defer host.Stop()
			if _, _, err := client.Run(p, "o", nil); err != nil {
				b.Error(err)
			}
		})
		k.Run()
	}
}

// BenchmarkOrchestrationFanOut measures one orchestration that fans out
// 80 activities (Fig 14's widest width) and joins them with WaitAll:
// every completion episode replays the whole growing history, so the
// history load and the replay's context build dominate.
func BenchmarkOrchestrationFanOut(b *testing.B) {
	const width = 80
	for i := 0; i < b.N; i++ {
		k, host, hub, client := fixture()
		if err := hub.RegisterActivity("w", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
			ctx.Busy(10 * time.Millisecond)
			return in, nil
		}); err != nil {
			b.Fatal(err)
		}
		if err := hub.RegisterOrchestrator("o", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
			tasks := make([]*Task, width)
			for j := range tasks {
				tasks[j] = ctx.CallActivity("w", input)
			}
			_, err := ctx.WaitAll(tasks...)
			return nil, err
		}); err != nil {
			b.Fatal(err)
		}
		k.Spawn("client", func(p *sim.Proc) {
			defer host.Stop()
			if _, _, err := client.Run(p, "o", []byte(`"frame"`)); err != nil {
				b.Error(err)
			}
		})
		k.Run()
	}
}
