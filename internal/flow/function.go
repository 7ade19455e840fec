package flow

import (
	"statebench/internal/cloud/faas"
	"statebench/internal/core"
	"statebench/internal/sim"
)

// RegisterFunction installs one task node as a function on a
// per-request function service (Lambda, Cloud Functions), wrapping its
// bound stage; memoryMB is the node's resolved memory tier.
func RegisterFunction(svc *faas.Service, st *Stages, n *Node, memoryMB int) error {
	stage, err := st.Task(n.Stage)
	if err != nil {
		return err
	}
	_, err = svc.Register(faas.Config{
		Name:          n.Fn,
		MemoryMB:      memoryMB,
		ConsumedMemMB: n.ConsumedMemMB,
		CodeSizeMB:    n.CodeSizeMB,
		Handler: func(ctx *faas.Context, input []byte) ([]byte, error) {
			return stage(ctx, input)
		},
	})
	return err
}

// FunctionRunner returns the runner of a Mono lowering on a per-request
// function service: each run invokes function fn synchronously.
func FunctionRunner(svc *faas.Service, fn string) core.Runner {
	return &functionRunner{svc: svc, fn: fn}
}

type functionRunner struct {
	svc *faas.Service
	fn  string
}

// Invoke implements core.Runner.
func (r *functionRunner) Invoke(p *sim.Proc, _ []byte) (core.RunStats, error) {
	inv, err := r.svc.Invoke(p, r.fn, nil)
	if err != nil {
		return core.RunStats{}, err
	}
	return core.RunStats{
		E2E:       inv.Total,
		ColdStart: inv.ColdStartDelay,
		ExecTime:  inv.ExecTime,
		Output:    inv.Output,
		Err:       inv.Err,
	}, nil
}
