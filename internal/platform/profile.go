package platform

import (
	"time"

	"statebench/internal/sim"
)

// ServeStyle names the container-lifecycle discipline a provider's
// compute plane uses to absorb open-loop load — the same split the
// Pool documents for the closed-loop services.
type ServeStyle int

const (
	// ServePerRequest scales per invocation: each arrival takes a warm
	// container or pays its own cold start (AWS Lambda, GCP Cloud
	// Functions).
	ServePerRequest ServeStyle = iota
	// ServeInstancePool runs work on long-lived instances provisioned
	// by a rate-limited scale controller; arrivals beyond capacity
	// queue (Azure Functions consumption plan).
	ServeInstancePool
)

// String returns the style's report label.
func (s ServeStyle) String() string {
	if s == ServeInstancePool {
		return "instance-pool"
	}
	return "per-request"
}

// TrafficProfile is a provider's calibration for the open-loop traffic
// engine (internal/traffic): the same distributions and limits the
// closed-loop services draw from (see params.go), flattened into the
// declarative subset the engine's event-driven serving models need.
// Providers register one through core.ProviderSpec.Traffic, exactly as
// they register backends — adding a cloud to the traffic experiment is
// one profile, no engine changes.
type TrafficProfile struct {
	Style ServeStyle

	// InvokeRTT is the front-end round trip paid by every invocation.
	InvokeRTT sim.Dist

	// ColdStart is the container/instance provisioning delay. For
	// per-request styles CodeFetchBW (bytes/s, 0 = none) adds the
	// deployment-package fetch for the engine's configured code size.
	ColdStart   sim.Dist
	CodeFetchBW float64

	// WarmStart is the per-invocation overhead when no cold start is
	// paid (warm-entry reuse, or dispatch onto a ready instance).
	WarmStart sim.Dist

	// KeepAlive is the warm-container lease (per-request style). The
	// per-request model has no concurrency cap: every arrival that
	// finds no warm container provisions its own.
	KeepAlive time.Duration

	// Instance-pool style: the scale controller's rate limit and
	// capacity model, per tenant (one function app per tenant).
	ScaleEvalInterval      time.Duration
	ScaleOutStep           int
	MaxInstances           int
	ConcurrencyPerInstance int
	IdleInstanceTimeout    time.Duration

	// MemoryMB is the billed memory size per execution, feeding GB-s
	// into the provider's pricing book.
	MemoryMB int
}

// Traffic returns the per-request traffic profile (AWS Lambda, GCP
// Cloud Functions), derived from the same calibration the closed-loop
// function service uses.
func (p FaaSParams) Traffic() TrafficProfile {
	return TrafficProfile{
		Style:       ServePerRequest,
		InvokeRTT:   p.InvokeRTT,
		ColdStart:   p.ColdStartBase,
		CodeFetchBW: p.CodeFetchBW,
		WarmStart:   p.WarmStart,
		KeepAlive:   p.KeepAlive,
		MemoryMB:    1024,
	}
}

// Traffic returns the Azure traffic profile: the consumption plan's
// rate-limited instance pool.
func (p AzureParams) Traffic() TrafficProfile {
	return TrafficProfile{
		Style:                  ServeInstancePool,
		InvokeRTT:              p.HTTPTriggerRTT,
		ColdStart:              p.InstanceColdStart,
		WarmStart:              p.Dispatch,
		ScaleEvalInterval:      p.ScaleEvalInterval,
		ScaleOutStep:           p.ScaleOutStep,
		MaxInstances:           p.MaxInstances,
		ConcurrencyPerInstance: p.ConcurrencyPerInstance,
		IdleInstanceTimeout:    p.IdleInstanceTimeout,
		MemoryMB:               1024,
	}
}
