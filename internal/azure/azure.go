// Package azure assembles the simulated Azure deployment used by the
// benchmarks: a consumption-plan function app, a durable task hub with
// client, blob storage, and factory helpers for manually managed
// storage queues (the Az-Queue implementation style).
package azure

import (
	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/chaos"
	"statebench/internal/cloud/blob"
	"statebench/internal/cloud/queue"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Cloud is one simulated Azure subscription/region.
type Cloud struct {
	Params platform.AzureParams
	Host   *functions.Host
	Hub    *durable.Hub
	Client *durable.Client
	Blob   *blob.Store

	k *sim.Kernel
	// ManualQueues tracks queues created with NewQueue so their
	// transactions can be summed into the stateful bill.
	ManualQueues []*queue.Queue
	tracer       *span.Tracer
	chaos        *chaos.Injector
}

// New builds a Cloud with the given calibration parameters.
func New(k *sim.Kernel, params platform.AzureParams) *Cloud {
	host := functions.NewHost(k, "app", params)
	hub := durable.NewHub(k, host, "hub")
	return &Cloud{
		Params: params,
		Host:   host,
		Hub:    hub,
		Client: durable.NewClient(hub),
		Blob:   blob.New(k, "azblob", blob.DefaultParams()),
		k:      k,
	}
}

// SetTracer enables span emission across the host, the task hub, and
// every manual queue (existing and future).
func (c *Cloud) SetTracer(tr *span.Tracer) {
	c.tracer = tr
	c.Host.Tracer = tr
	c.Hub.SetTracer(tr)
	for _, q := range c.ManualQueues {
		q.Tracer = tr
	}
}

// SetChaos enables fault injection across the host, the task hub, and
// every manual queue (existing and future).
func (c *Cloud) SetChaos(inj *chaos.Injector) {
	c.chaos = inj
	c.Host.Chaos = inj
	c.Hub.SetChaos(inj)
	for _, q := range c.ManualQueues {
		q.Chaos = inj
	}
}

// SetTimeline enables per-window telemetry gauges on the function app:
// dispatch-queue depth and ready-instance occupancy.
func (c *Cloud) SetTimeline(s *tseries.Series) {
	c.Host.SetTimeline(s)
}

// NewQueue creates a manually managed storage queue (Az-Queue style)
// whose transactions are tracked for billing.
func (c *Cloud) NewQueue(name string) *queue.Queue {
	qp := queue.DefaultParams()
	qp.MaxPayload = c.Params.QueuePayloadLimit
	q := queue.New(c.k, name, qp)
	q.Tracer = c.tracer
	q.Chaos = c.chaos
	c.ManualQueues = append(c.ManualQueues, q)
	return q
}

// StorageTransactions sums billable storage transactions across the
// task hub and all manual queues.
func (c *Cloud) StorageTransactions() int64 {
	return c.Hub.StorageTransactions() + c.ManualQueueTransactions()
}

// ManualQueueTransactions sums transactions of manually managed queues
// only (what a deployment without the durable extension is billed for).
func (c *Cloud) ManualQueueTransactions() int64 {
	var total int64
	for _, q := range c.ManualQueues {
		total += q.Stats().Transactions()
	}
	return total
}

// Stop terminates listeners and the scale controller so a finished
// simulation's kernel can drain.
func (c *Cloud) Stop() { c.Host.Stop() }

// Usage reports cumulative billable consumption (the core.Backend
// seam). Deployments without the durable extension are billed only for
// their manually managed queues, not the task hub's storage traffic;
// AllTxns always carries the full transaction count for the paper's
// transactions-per-run metric.
func (c *Cloud) Usage(stateful bool) pricing.Usage {
	m := c.Host.TotalMeter()
	txns := c.StorageTransactions()
	statefulTxns := txns
	if !stateful {
		statefulTxns = c.ManualQueueTransactions()
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
