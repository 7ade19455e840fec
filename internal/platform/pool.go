package platform

import (
	"sort"
	"time"

	"statebench/internal/obs/tseries"
	"statebench/internal/sim"
)

// Pool is the shared container-lifecycle substrate both compute
// services are built on. It owns the bookkeeping every FaaS runtime
// needs — warm-container reuse with keep-alive expiry, instance
// provisioning counters, idle tracking and reaping — while the
// *policy* (when to start containers, how fast to scale, which RNG
// stream to sample cold-start delays from) stays with the service that
// owns the pool, and so do the cold-start measurements:
//
//   - The per-request function service (internal/cloud/faas, behind
//     AWS Lambda and GCP Cloud Functions): every invocation either
//     takes a warm entry (TakeWarm) or pays a cold start the service
//     samples and reports itself, then returns the container with a
//     fresh keep-alive lease (Release).
//   - The Azure Functions host provisions long-lived worker instances
//     through a rate-limited scale controller: BeginStart/FinishStart
//     track the provisioning pipeline, PopIdle/PushIdle pair work with
//     idle instances, and ReapIdle implements the controller's idle
//     eviction policy.
//
// A Pool is pure bookkeeping: it never samples randomness, schedules
// events, or touches the kernel, so relocating this state out of the
// provider packages cannot change any simulated timing or RNG draw
// order. Like the services that embed it, a Pool belongs to one
// kernel goroutine and needs no locking.
type Pool struct {
	// KeepAlive is how long a released warm container stays reusable
	// (the per-request-scaling keep-alive policy). Providers using the
	// instance-pool style leave it zero.
	KeepAlive time.Duration

	// Timeline, when non-nil, receives warm-pool occupancy gauge
	// observations (live warm containers per Release, ready instances
	// per FinishStart) into their virtual-time windows. Observation
	// only: the pool never reads the series, so enabling it cannot
	// change any lifecycle decision.
	Timeline *tseries.Series

	// warm holds expiry times of idle warm containers. Because Release
	// stamps now+KeepAlive and virtual time is monotone, the slice is
	// sorted: expired entries form a prefix consumed by advancing
	// warmHead (amortized O(1)) instead of compacting the whole slice
	// per take — the difference between O(n) and O(1) acquisition when
	// the open-loop traffic engine keeps millions of containers warm.
	warm     []sim.Time
	warmHead int
	idle     []*Container
	ready    int
	starting int
}

// Container is one provisioned worker instance in the instance-pool
// style. Providers hold the pointer across an execution and either
// push it back idle or retire it.
type Container struct {
	IdleSince sim.Time
	Stopped   bool
}

// --- Per-request (warm-entry) style -------------------------------

// expireWarm drops entries expired at now. Expiries are sorted (see
// the warm field), so expired entries are a prefix: advance the head
// index over them — each entry is skipped at most once in the pool's
// lifetime — and slide the backing array down only when the dead
// prefix dominates it.
func (p *Pool) expireWarm(now sim.Time) {
	h := p.warmHead
	for h < len(p.warm) && p.warm[h] <= now {
		h++
	}
	p.warmHead = h
	switch {
	case h == len(p.warm):
		p.warm = p.warm[:0]
		p.warmHead = 0
	case h >= 64 && h > len(p.warm)/2:
		n := copy(p.warm, p.warm[h:])
		p.warm = p.warm[:n]
		p.warmHead = 0
	}
}

// TakeWarm pops one unexpired warm container, discarding expired
// entries. The most recently released container is reused first,
// matching Lambda's observed LIFO reuse. Amortized O(1).
func (p *Pool) TakeWarm(now sim.Time) (sim.Time, bool) {
	p.expireWarm(now)
	if p.warmHead == len(p.warm) {
		return 0, false
	}
	exp := p.warm[len(p.warm)-1]
	p.warm = p.warm[:len(p.warm)-1]
	return exp, true
}

// Release returns a container to the warm pool with a fresh
// keep-alive lease starting at now. Crashed containers must not be
// released — the next invocation then pays a cold start.
//
// Virtual time is monotone within a run, so the lease expiries arrive
// in order; the rare out-of-order release (a provider re-leasing with
// a backdated timestamp) falls back to a sorted insert to preserve
// the expiry invariant.
func (p *Pool) Release(now sim.Time) {
	exp := now + p.KeepAlive
	if n := len(p.warm); n > 0 && p.warm[n-1] > exp {
		i := sort.Search(n-p.warmHead, func(i int) bool { return p.warm[p.warmHead+i] > exp }) + p.warmHead
		p.warm = append(p.warm, 0)
		copy(p.warm[i+1:], p.warm[i:])
		p.warm[i] = exp
	} else {
		p.warm = append(p.warm, exp)
	}
	if p.Timeline.Enabled() {
		p.expireWarm(now)
		p.Timeline.ObserveWarmPool(now, int64(len(p.warm)-p.warmHead))
	}
}

// --- Instance-pool style ------------------------------------------

// Starting returns the number of instances still provisioning.
func (p *Pool) Starting() int { return p.starting }

// Provisioning returns ready + starting instances — the scale
// controller's view of committed capacity.
func (p *Pool) Provisioning() int { return p.ready + p.starting }

// IdleCount returns the number of parked idle instances.
func (p *Pool) IdleCount() int { return len(p.idle) }

// BeginStart books the launch of a new instance: it enters the
// provisioning pipeline.
func (p *Pool) BeginStart() { p.starting++ }

// FinishStart completes one instance launch begun with BeginStart and
// returns the fresh instance, idle as of now.
func (p *Pool) FinishStart(now sim.Time) *Container {
	p.starting--
	p.ready++
	p.Timeline.ObserveWarmPool(now, int64(p.ready))
	return &Container{IdleSince: now}
}

// PopIdle takes the longest-idle instance, if any.
func (p *Pool) PopIdle() (*Container, bool) {
	if len(p.idle) == 0 {
		return nil, false
	}
	c := p.idle[0]
	p.idle = p.idle[1:]
	return c, true
}

// PushIdle parks an instance as idle since now.
func (p *Pool) PushIdle(c *Container, now sim.Time) {
	c.IdleSince = now
	p.idle = append(p.idle, c)
}

// Retire removes a live instance from capacity (idle reap or chaos
// host recycle). The instance's Stopped flag tells any process still
// holding the pointer not to reuse it.
func (p *Pool) Retire(c *Container) {
	c.Stopped = true
	p.ready--
}

// ReapIdle retires every instance idle since before cutoff — the
// consumption-plan idle eviction policy, which scales an idle app to
// zero ready instances (the next request pays an instance start). It
// returns the number reaped.
func (p *Pool) ReapIdle(cutoff sim.Time) int {
	reaped := 0
	keep := p.idle[:0]
	for _, c := range p.idle {
		if c.IdleSince < cutoff {
			p.Retire(c)
			reaped++
		} else {
			keep = append(keep, c)
		}
	}
	p.idle = keep
	return reaped
}
