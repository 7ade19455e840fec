// Package gcp assembles the third simulated provider: Cloud Functions
// (gen 1) with per-request instance scaling, a Workflows-style
// code-first orchestrator on top of them, and a GCS-like object store.
// GCP is not part of the paper's measurement — it exists to prove the
// provider-registry seam: the package registers itself with core from
// init and is never imported by core, pricing, or the experiment
// drivers' paper figures.
package gcp

import (
	"statebench/internal/chaos"
	"statebench/internal/cloud/blob"
	"statebench/internal/cloud/faas"
	"statebench/internal/core"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Kind identifies the GCP provider in the core registry. The constant
// lives here, not in core: registering a provider must not require
// editing any core source, and this allocation is the proof.
const Kind core.CloudKind = 2

// The GCP implementation styles. They ride on ExtendedWorkflow's
// ExtraImpls, never on core.AllImpls, so paper output is unaffected.
const (
	// Func is the monolithic stateless Cloud Function style.
	Func core.Impl = "GCP-Func"
	// Wflow is the GCP Workflows orchestration style.
	Wflow core.Impl = "GCP-Wflow"
)

// Cloud is one simulated GCP project/region.
type Cloud struct {
	Functions *faas.Service
	Workflows *Workflows
	GCS       *blob.Store
}

// New builds a Cloud with the given calibration parameters.
func New(k *sim.Kernel, params platform.GCPParams) *Cloud {
	fsvc := faas.New(k, "gcf", "gcp/functions", faas.MemoryTiers(params.MemoryTiersMB), params.FaaSParams)
	return &Cloud{
		Functions: fsvc,
		Workflows: NewWorkflows(k, params, fsvc),
		GCS:       blob.New(k, "gcs", blob.DefaultParams()),
	}
}

// FromEnv returns the Env's GCP backend, constructing it on first use.
// Deployment code uses this the way it uses env.AWS() / env.Azure().
func FromEnv(env *core.Env) *Cloud { return env.Backend(Kind).(*Cloud) }

// SetTracer enables span emission on Functions and Workflows.
func (c *Cloud) SetTracer(tr *span.Tracer) {
	c.Functions.Tracer = tr
	c.Workflows.Tracer = tr
}

// SetChaos enables fault injection on Functions and Workflows.
func (c *Cloud) SetChaos(inj *chaos.Injector) {
	c.Functions.Chaos = inj
	c.Workflows.Chaos = inj
}

// SetTimeline enables per-window warm-pool occupancy gauges on the
// Cloud Functions instance pools (Workflows holds no instances).
func (c *Cloud) SetTimeline(s *tseries.Series) {
	c.Functions.SetTimeline(s)
}

// Usage reports cumulative billable consumption (the core.Backend
// seam). Like AWS, GCP bills workflow steps whether or not the style
// is stateful — a functions-only deployment simply produces none.
func (c *Cloud) Usage(stateful bool) pricing.Usage {
	m := c.Functions.TotalMeter()
	return pricing.Usage{
		GBs:          m.BilledGBs,
		Requests:     m.Invocations,
		StatefulTxns: c.Workflows.TotalSteps,
		AllTxns:      c.Workflows.TotalSteps,
		BlobTxns:     c.GCS.Stats().Transactions(),
		Exec:         m.ExecTime,
	}
}

// Stop implements core.Backend; the GCP services run no background
// listeners, so there is nothing to halt.
func (c *Cloud) Stop() {}

func init() {
	core.RegisterProvider(core.ProviderSpec{
		Kind: Kind,
		Name: "GCP",
		Styles: []core.StyleInfo{
			{Impl: Func, Description: "One stateless Cloud Function."},
			{Impl: Wflow, Stateful: true, Description: "Workflow implemented using GCP Workflows, calling Cloud Functions on each step."},
		},
		NewBackend:         func(e *core.Env) core.Backend { return New(e.K, platform.DefaultGCP()) },
		DefaultBook:        func() pricing.Book { return pricing.DefaultGCP() },
		Traffic:            func() platform.TrafficProfile { return platform.DefaultGCP().Traffic() },
		BillsConfiguredMem: true,
	})
}
