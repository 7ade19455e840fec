package sfn

import (
	"testing"
	"time"

	"statebench/internal/cloud/faas"
	"statebench/internal/sim"
)

// BenchmarkStateMachineRun measures a chain + Map execution through the
// simulated Step Functions engine.
func BenchmarkStateMachineRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		k, lsvc, s := fixture()
		lsvc.MustRegister(faas.Config{Name: "w", MemoryMB: 128, Handler: func(ctx *faas.Context, p []byte) ([]byte, error) {
			ctx.Busy(10 * time.Millisecond)
			return p, nil
		}})
		sm := &StateMachine{StartAt: "A", States: map[string]*State{
			"A": {Type: TypeTask, Resource: "w", Next: "M"},
			"M": {Type: TypeMap, ItemsPath: "$.items", End: true,
				Iterator: &StateMachine{StartAt: "I", States: map[string]*State{
					"I": {Type: TypeTask, Resource: "w", End: true},
				}}},
		}}
		if err := s.CreateStateMachine("m", sm); err != nil {
			b.Fatal(err)
		}
		k.Spawn("client", func(p *sim.Proc) {
			items := []any{float64(1), float64(2), float64(3), float64(4)}
			if _, err := s.StartExecution(p, "m", map[string]any{"items": items}); err != nil {
				b.Error(err)
			}
		})
		k.Run()
	}
}
