// Package mltrain implements the paper's machine-learning training
// workflow (Fig 2–3: data preparation → dimension reduction → parallel
// model selection → best-fit collection) in all six Table II styles.
//
// The workflow is defined once as a provider-neutral flow graph
// (def.go); per-provider deployments are produced by the registered
// flow lowerers, so this package contains zero provider-specific
// deployment code. Real artifacts (datasets, fitted transformers,
// serialized models) come from mlpipe's host-side pipeline; simulated
// execution times come from mlpipe's calibrated cost model; every byte
// that crosses a function boundary is a real payload routed through
// the platform's queues, state machines, or blob storage with limits
// enforced.
package mltrain

import (
	"encoding/json"
	"fmt"

	"statebench/internal/core"
	"statebench/internal/flow"
	_ "statebench/internal/flow/lowerers"
	"statebench/internal/workloads"
	"statebench/internal/workloads/mlpipe"
)

// Workflow is the ML training workload for one dataset size.
type Workflow struct {
	Size mlpipe.DatasetSize
	// MemMB, when > 0, overrides the provisioned memory tier of every
	// platform task (the optimizer's memory knob); 0 keeps each
	// lowering provider's default. Whether the tier shapes the bill is
	// the provider's ProviderSpec.BillsConfiguredMem.
	MemMB int
}

// New returns the workload for a dataset size.
func New(size mlpipe.DatasetSize) *Workflow { return &Workflow{Size: size} }

// Name implements core.Workflow.
func (w *Workflow) Name() string { return "ml-training-" + string(w.Size) }

// Impls implements core.Workflow: Table II lists all six styles for ML
// training. Styles of additional providers ride on ExtraImpls so the
// paper's figures never see them.
func (w *Workflow) Impls() []core.Impl { return core.AllImpls() }

// ExtraImpls implements core.ExtendedWorkflow: every registered
// lowerer the IR supports beyond Table II, discovered from the flow
// registry — plugging in a provider never edits this package.
func (w *Workflow) ExtraImpls() []core.Impl {
	def, err := definition(w.Size, nil)
	if err != nil {
		return nil
	}
	return flow.Extras(def, core.AllImpls())
}

// Deploy implements core.Workflow by lowering the IR definition.
func (w *Workflow) Deploy(env *core.Env, impl core.Impl) (*core.Deployment, error) {
	arts, err := mlpipe.TrainWith(env.Payload, w.Size)
	if err != nil {
		return nil, fmt.Errorf("mltrain: prepare artifacts: %w", err)
	}
	def, err := definition(w.Size, arts)
	if err != nil {
		return nil, err
	}
	flow.OverrideMemMB(def, w.MemMB)
	return flow.Deploy(env, def, impl)
}

// datasetKey is where the training dataset is staged.
func datasetKey(size mlpipe.DatasetSize) string { return "datasets/cars-" + string(size) + ".csv" }

// stepMsg is the small JSON document passed between workflow steps;
// anything larger than the payload limits travels by blob key.
type stepMsg struct {
	Run   int64   `json:"run"`
	Key   string  `json:"key,omitempty"`
	Algo  string  `json:"algo,omitempty"`
	MSE   float64 `json:"mse,omitempty"`
	Model string  `json:"model,omitempty"`
}

func marshalMsg(m stepMsg) []byte {
	b, _ := json.Marshal(m)
	return b
}

func parseMsg(data []byte) (stepMsg, error) {
	var m stepMsg
	err := json.Unmarshal(data, &m)
	return m, err
}

// runKey namespaces a per-run intermediate blob object: it is
// fmt.Sprintf("tmp/run%06d/%s", run, name).
func runKey(run int64, name string) string {
	var buf [64]byte
	b := workloads.AppendPadded(append(buf[:0], "tmp/run"...), run, 6)
	return string(append(append(b, '/'), name...))
}

// bestModelKey is where the winning model is published.
const bestModelKey = "models/best"
