// Package aws assembles the simulated AWS deployment used by the
// benchmarks: a Lambda service, a Step Functions service on top of it,
// and an S3-like object store for data too large for service payloads.
package aws

import (
	"statebench/internal/aws/sfn"
	"statebench/internal/chaos"
	"statebench/internal/cloud/blob"
	"statebench/internal/cloud/faas"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Cloud is one simulated AWS region/account.
type Cloud struct {
	Params platform.AWSParams
	Lambda *faas.Service
	SFN    *sfn.Service
	S3     *blob.Store
}

// New builds a Cloud with the given calibration parameters.
func New(k *sim.Kernel, params platform.AWSParams) *Cloud {
	lsvc := faas.New(k, "lambda", "aws/lambda", faas.MemoryStep(params.MemoryStepMB), params.FaaSParams)
	return &Cloud{
		Params: params,
		Lambda: lsvc,
		SFN:    sfn.New(k, params, lsvc),
		S3:     blob.New(k, "s3", blob.DefaultParams()),
	}
}

// SetTracer enables span emission on Lambda and Step Functions.
func (c *Cloud) SetTracer(tr *span.Tracer) {
	c.Lambda.Tracer = tr
	c.SFN.Tracer = tr
}

// SetChaos enables fault injection on Lambda and Step Functions.
func (c *Cloud) SetChaos(inj *chaos.Injector) {
	c.Lambda.Chaos = inj
	c.SFN.Chaos = inj
}

// SetTimeline enables per-window warm-pool occupancy gauges on the
// Lambda container pools (Step Functions holds no instances).
func (c *Cloud) SetTimeline(s *tseries.Series) {
	c.Lambda.SetTimeline(s)
}

// Usage reports cumulative billable consumption (the core.Backend
// seam). AWS bills Step transitions whether or not the style is
// stateful — a stateless deployment simply produces none.
func (c *Cloud) Usage(stateful bool) pricing.Usage {
	m := c.Lambda.TotalMeter()
	return pricing.Usage{
		GBs:          m.BilledGBs,
		Requests:     m.Invocations,
		StatefulTxns: c.SFN.TotalTransitions,
		AllTxns:      c.SFN.TotalTransitions,
		BlobTxns:     c.S3.Stats().Transactions(),
		Exec:         m.ExecTime,
	}
}

// Stop implements core.Backend; the AWS services run no background
// listeners, so there is nothing to halt.
func (c *Cloud) Stop() {}
