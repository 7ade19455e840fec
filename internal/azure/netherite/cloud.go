package netherite

import (
	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/chaos"
	"statebench/internal/cloud/blob"
	"statebench/internal/core"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Kind identifies the Netherite task hub in the core registry. Like
// internal/gcp, the constant lives here: registering the provider must
// not require editing any core source.
const Kind core.CloudKind = 3

// The Netherite implementation styles. They ride on ExtendedWorkflow's
// ExtraImpls, never on core.AllImpls, so paper output is unaffected.
const (
	// Dorch is the Durable-orchestrator style on a Netherite task hub.
	Dorch core.Impl = "Az-Dorch-N"
	// Dent is the Durable-entities style on a Netherite task hub.
	Dent core.Impl = "Az-Dent-N"
)

// Cloud is one simulated Azure subscription whose function app runs
// the Durable extension on a Netherite task hub instead of the classic
// Azure Storage one. Same host, same orchestration semantics, same
// price book — only the Store behind the hub differs, which is what
// makes classic-vs-Netherite a controlled comparison.
type Cloud struct {
	Host   *functions.Host
	Hub    *durable.Hub
	Client *durable.Client
	Blob   *blob.Store
}

// New builds a Cloud whose task hub runs on a Netherite store.
func New(k *sim.Kernel, params platform.AzureParams) *Cloud {
	host := functions.NewHost(k, "netherite-app", params)
	hub := durable.NewHubWithStore(k, host, "netherite-hub", NewStore(k, "netherite-hub"))
	return &Cloud{
		Host:   host,
		Hub:    hub,
		Client: durable.NewClient(hub),
		Blob:   blob.New(k, "netherite-blob", blob.DefaultParams()),
	}
}

// FromEnv returns the Env's Netherite backend, constructing it on
// first use. Deployment code uses this the way it uses env.Azure().
func FromEnv(env *core.Env) *Cloud { return env.Backend(Kind).(*Cloud) }

// SetTracer enables span emission on the host and hub transport.
func (c *Cloud) SetTracer(tr *span.Tracer) {
	c.Host.Tracer = tr
	c.Hub.SetTracer(tr)
}

// SetChaos enables fault injection on the host and the commit path.
func (c *Cloud) SetChaos(inj *chaos.Injector) {
	c.Host.Chaos = inj
	c.Hub.SetChaos(inj)
}

// SetTimeline enables per-window telemetry gauges on the function app.
func (c *Cloud) SetTimeline(s *tseries.Series) {
	c.Host.SetTimeline(s)
}

// Stop terminates the scale controller so a finished kernel can drain
// (the Netherite store itself runs no listeners).
func (c *Cloud) Stop() { c.Host.Stop() }

// Usage reports cumulative billable consumption (the core.Backend
// seam). Both Netherite styles are stateful; group commits land in
// StatefulTxns where the classic hub books its queue and table
// traffic, so the transaction contrast reads off the same column.
func (c *Cloud) Usage(stateful bool) pricing.Usage {
	m := c.Host.TotalMeter()
	txns := c.Hub.StorageTransactions()
	statefulTxns := txns
	if !stateful {
		statefulTxns = 0
	}
	return pricing.Usage{
		GBs:          m.BilledGBs,
		Requests:     m.Invocations,
		StatefulTxns: statefulTxns,
		AllTxns:      txns,
		BlobTxns:     c.Blob.Stats().Transactions(),
		Exec:         m.ExecTime,
	}
}

func init() {
	core.RegisterProvider(core.ProviderSpec{
		Kind: Kind,
		Name: "Netherite",
		Styles: []core.StyleInfo{
			{Impl: Dorch, Stateful: true, Description: "Durable orchestrators on a Netherite task hub: partitioned, group-committed, speculative commit logs instead of storage queues."},
			{Impl: Dent, Stateful: true, Description: "Durable entities on a Netherite task hub; entity state lives in the partition logs."},
		},
		NewBackend:  func(e *core.Env) core.Backend { return New(e.K, platform.DefaultAzure()) },
		DefaultBook: func() pricing.Book { return pricing.DefaultAzure() },
		// No Traffic profile: the traffic experiment's provider sweep is
		// calibrated per cloud, not per task-hub backend; the netherite
		// experiment drives its own open-loop comparison instead.
	})
}
