package traffic

import (
	"time"

	"statebench/internal/obs"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

// Config parameterizes one open-loop run against one provider.
type Config struct {
	// Tenants is the simulated tenant population. Each tenant is an
	// isolated function app: its own warm-container pool or instance
	// pool, its own bill.
	Tenants int
	// Duration is the arrival window; the run then drains in-flight
	// work to completion.
	Duration sim.Time
	// Process generates the aggregate arrival stream. Per-tenant
	// streams are not simulated individually: the superposition of the
	// population's independent Poisson streams is itself Poisson (and
	// analogously for the modulated variants), so arrivals are drawn
	// from one aggregate process, and each arrival goes to a tenant drawn
	// uniformly from the population.
	Process ArrivalProcess
	// Profile is the provider's serving-model calibration, from the
	// registry's ProviderSpec.Traffic.
	Profile platform.TrafficProfile
	// Book prices each tenant's usage; nil skips billing.
	Book pricing.Book
	// ExecTime is the handler execution-time distribution.
	ExecTime sim.Dist
	// CodeSizeMB adds deployment-package fetch time to per-request
	// cold starts (profile.CodeFetchBW).
	CodeSizeMB float64
	// Shards is ignored: the kernel has one event heap. The field
	// remains because perfbench still sets it; drop both together.
	Shards int
	// Seed drives every RNG stream of the run.
	Seed uint64

	// Timeline, when non-nil, receives per-window telemetry: arrivals,
	// completions, cold starts (attributed at the provisioning
	// decision), scheduling delays at dispatch, and population-wide
	// backlog / warm-capacity max-gauges maintained incrementally (O(1)
	// per event, never an O(Tenants) scan). Recording is pure
	// observation — no events, no RNG draws — so results are
	// byte-identical with it on or off.
	Timeline *tseries.Series
	// OnWindow, when non-nil (requires Timeline), is invoked by the run
	// loop each time the virtual clock crosses a Timeline window
	// boundary, with the boundary just crossed. It runs outside the
	// event order (no sequence numbers are drawn) and must not mutate
	// simulation state; it exists for wall-clock side effects like
	// publishing a snapshot to a live endpoint.
	OnWindow func(boundary sim.Time)
}

// Result is the outcome of one open-loop run. All latency aggregates
// are streaming histograms (constant memory at any arrival count) and
// are byte-identical for every worker layout.
type Result struct {
	Cloud   string
	Style   platform.ServeStyle
	Process string

	Arrivals    uint64
	Completions uint64
	Events      uint64 // kernel events executed
	SimEnd      sim.Time

	// E2E is arrival-to-completion latency (including invoke RTT).
	E2E obs.Hist
	// ColdWait is the provisioning delay paid by cold invocations
	// (per-request style) or instance starts (instance-pool style).
	ColdWait   obs.Hist
	ColdStarts uint64
	// QueueWait is the scheduling delay between arrival and dispatch
	// onto an instance (instance-pool style; zero for immediate
	// dispatch).
	QueueWait obs.Hist

	// PeakBacklog is the scale controller's worst queue depth across
	// the run; MeanBacklog averages the depth seen at controller
	// evaluations. Both are zero for per-request providers.
	PeakBacklog  int
	MeanBacklog  float64
	PeakInFlight int

	// TotalBill is the summed bill across tenants; TenantCost is the
	// per-tenant cost distribution in nano-USD (1e9 units = $1),
	// recorded only for tenants that sent traffic.
	TotalBill     pricing.Bill
	TenantCost    obs.Hist
	BilledTenants int
}

// EventsPerSecond is unavailable from the Result itself (virtual runs
// have no wall time); callers time Run and divide by Events.

// rec is one in-flight invocation, pooled in a sim.Arena. fire is the
// completion-event closure, allocated once per arena slot and reused
// across every invocation that recycles the slot — steady-state, the
// engine schedules hundreds of millions of completions without
// allocating per event.
type rec struct {
	tenant int32
	next   int32 // backlog chain link (instance-pool style)
	start  sim.Time
	rtt    sim.Time
	exec   sim.Time
	fire   func()
}

// tev is a per-tenant control event (scale evaluation, instance
// start completion, idle reap), pooled like rec. Control events are
// demand-driven: a tenant has controller events in flight only while
// it has work, so a million mostly-idle tenants cost no standing
// timer load.
type tev struct {
	tenant int32
	kind   uint8
	fire   func()
}

const (
	tevScaleEval = iota
	tevInstanceUp
	tevReap
)

// tenant state flag bits (ctrl array).
const (
	ctrlArmed = 1 << iota
	reapArmed
)

const noRec = int32(-1)

// engine is one run's state. Per-tenant state is structure-of-arrays:
// a few dozen bytes per tenant, no per-tenant heap objects, so a
// million tenants fit in tens of MB and the records that do churn
// (in-flight invocations, control events) live in arenas bounded by
// peak concurrency, not throughput.
type engine struct {
	cfg Config
	k   *sim.Kernel
	res *Result

	arrRNG *sim.RNG // arrival process + tenant attribution
	svcRNG *sim.RNG // service-side draws (RTT, cold, exec)

	// Per-request (warm-entry) style, mirroring platform.Pool's
	// warm-lease semantics in compact form: warmCnt idle containers,
	// all conservatively sharing the newest lease expiry. Per-tenant
	// arrival gaps at population scale are long relative to lease
	// spread, so collapsing the expiry ladder to its newest rung is a
	// sub-percent approximation (see DESIGN.md §11).
	warmCnt []uint16
	warmExp []sim.Time

	// Instance-pool style.
	ready    []uint16
	starting []uint16
	busy     []uint16
	backlogN []uint32
	blHead   []int32
	blTail   []int32
	ctrl     []uint8
	lastIdle []sim.Time

	// Billing accumulators.
	execNano []int64
	reqCnt   []uint32

	recs sim.Arena[rec]
	tevs sim.Arena[tev]

	inFlight     int
	backlogEvals uint64
	backlogSum   uint64

	coldFetch sim.Time // per-request code-fetch addend

	// Windowed-telemetry state. tl aliases cfg.Timeline (nil when
	// disabled; every record method is nil-safe). totBacklog/totWarm are
	// population-wide running totals — queued records and live warm
	// containers (per-request) or ready instances (instance-pool) —
	// maintained incrementally at the places the per-tenant counters
	// change, so gauge observation is O(1) per event. totWarm counts
	// not-known-expired warm leases: lazily-expired containers are
	// subtracted only when their tenant's next cold start discovers
	// them, the same approximation the serving model itself makes.
	tl         *tseries.Series
	totBacklog int64
	totWarm    int64
}

// Run executes one open-loop run to completion and returns its result.
func Run(cfg Config) *Result {
	if cfg.Tenants < 1 {
		cfg.Tenants = 1
	}
	if cfg.Process == nil {
		cfg.Process = Poisson{Rate: 100}
	}
	if cfg.ExecTime == nil {
		cfg.ExecTime = sim.LogNormalDist{Median: 80 * time.Millisecond, Sigma: 0.5, Max: 10 * time.Second}
	}

	k := sim.NewKernel(cfg.Seed)
	e := &engine{
		cfg: cfg,
		k:   k,
		res: &Result{Style: cfg.Profile.Style, Process: cfg.Process.String()},

		arrRNG: k.Stream("traffic.arrivals"),
		svcRNG: k.Stream("traffic.service"),

		execNano: make([]int64, cfg.Tenants),
		reqCnt:   make([]uint32, cfg.Tenants),

		tl: cfg.Timeline,
	}
	if cfg.Timeline.Enabled() && cfg.OnWindow != nil {
		k.SetTickListener(cfg.Timeline.Interval(), cfg.OnWindow)
	}
	if cfg.Profile.CodeFetchBW > 0 {
		e.coldFetch = sim.Time(cfg.CodeSizeMB * 1e6 / cfg.Profile.CodeFetchBW * 1e9)
	}
	switch cfg.Profile.Style {
	case platform.ServePerRequest:
		e.warmCnt = make([]uint16, cfg.Tenants)
		e.warmExp = make([]sim.Time, cfg.Tenants)
	case platform.ServeInstancePool:
		e.ready = make([]uint16, cfg.Tenants)
		e.starting = make([]uint16, cfg.Tenants)
		e.busy = make([]uint16, cfg.Tenants)
		e.backlogN = make([]uint32, cfg.Tenants)
		e.blHead = make([]int32, cfg.Tenants)
		e.blTail = make([]int32, cfg.Tenants)
		e.ctrl = make([]uint8, cfg.Tenants)
		e.lastIdle = make([]sim.Time, cfg.Tenants)
		for i := range e.blHead {
			e.blHead[i] = noRec
		}
	}

	// The arrival chain: one self-rescheduling event generates the
	// whole stream; no arrivals are scheduled past Duration, so the
	// run drains naturally.
	var arrive func()
	arrive = func() {
		e.arrival()
		if next := cfg.Process.Next(e.arrRNG, k.Now()); next < cfg.Duration {
			k.At(next, arrive)
		}
	}
	if first := cfg.Process.Next(e.arrRNG, 0); first < cfg.Duration {
		k.At(first, arrive)
	}

	e.res.SimEnd = k.Run()
	e.res.Events = k.Executed()
	if e.backlogEvals > 0 {
		e.res.MeanBacklog = float64(e.backlogSum) / float64(e.backlogEvals)
	}
	e.bill()
	return e.res
}

// alloc takes an invocation record, installing the slot's completion
// closure on first use.
func (e *engine) alloc() (int32, *rec) {
	h, r := e.recs.Alloc()
	if r.fire == nil {
		hh := h
		r.fire = func() { e.complete(hh) }
	}
	r.next = noRec
	return h, r
}

// arrival admits one invocation at the current instant.
func (e *engine) arrival() {
	t := int32(e.arrRNG.Intn(e.cfg.Tenants)) // uniform attribution
	e.reqCnt[t]++
	e.res.Arrivals++
	now := e.k.Now()
	e.tl.AddArrival(now)

	h, r := e.alloc()
	r.tenant = t
	r.start = now
	r.rtt = e.cfg.Profile.InvokeRTT.Sample(e.svcRNG)
	r.exec = e.cfg.ExecTime.Sample(e.svcRNG)
	e.inFlight++
	if e.inFlight > e.res.PeakInFlight {
		e.res.PeakInFlight = e.inFlight
	}

	if e.cfg.Profile.Style == platform.ServePerRequest {
		var entry sim.Time
		if e.warmCnt[t] > 0 && e.warmExp[t] > now {
			e.warmCnt[t]--
			e.totWarm--
			entry = e.cfg.Profile.WarmStart.Sample(e.svcRNG)
		} else {
			e.totWarm -= int64(e.warmCnt[t]) // lazily-expired leases surface here
			e.warmCnt[t] = 0
			e.res.ColdStarts++
			entry = e.cfg.Profile.ColdStart.Sample(e.svcRNG) + e.coldFetch
			e.res.ColdWait.Record(entry)
			e.tl.AddCold(now, entry)
		}
		e.k.At(now+r.rtt+entry+r.exec, r.fire)
		return
	}

	// Instance-pool: dispatch onto a ready instance or queue for the
	// scale controller.
	if int(e.busy[t]) < int(e.ready[t])*e.cfg.Profile.ConcurrencyPerInstance {
		e.dispatch(r)
		return
	}
	if e.blHead[t] == noRec {
		e.blHead[t] = h
	} else {
		e.recs.At(e.blTail[t]).next = h
	}
	e.blTail[t] = h
	e.backlogN[t]++
	if int(e.backlogN[t]) > e.res.PeakBacklog {
		e.res.PeakBacklog = int(e.backlogN[t])
	}
	e.totBacklog++
	e.tl.ObserveQueueDepth(now, e.totBacklog)
	if e.ctrl[t]&ctrlArmed == 0 {
		e.ctrl[t] |= ctrlArmed
		e.armTev(t, tevScaleEval, e.cfg.Profile.ScaleEvalInterval)
	}
}

// dispatch starts an execution on the tenant's instance pool: the
// completion carries the queueing delay accrued so far.
func (e *engine) dispatch(r *rec) {
	t := r.tenant
	now := e.k.Now()
	e.busy[t]++
	e.res.QueueWait.Record(now - r.start)
	e.tl.AddSched(now, now-r.start)
	disp := e.cfg.Profile.WarmStart.Sample(e.svcRNG)
	e.k.At(now+disp+r.exec, r.fire)
}

// complete finishes an invocation: streaming aggregation, billing
// accumulators, and container-lifecycle bookkeeping.
func (e *engine) complete(h int32) {
	r := e.recs.At(h)
	t := r.tenant
	now := e.k.Now()
	e.res.Completions++
	e.res.E2E.Record(now - r.start + r.rtt)
	e.tl.AddCompletion(now, now-r.start+r.rtt)
	e.execNano[t] += int64(r.exec)
	e.inFlight--

	switch e.cfg.Profile.Style {
	case platform.ServePerRequest:
		if e.warmCnt[t] < ^uint16(0) {
			e.warmCnt[t]++
			e.totWarm++
			e.tl.ObserveWarmPool(now, e.totWarm)
		}
		e.warmExp[t] = now + e.cfg.Profile.KeepAlive
		e.recs.Free(h)
	case platform.ServeInstancePool:
		e.busy[t]--
		e.recs.Free(h)
		if qh := e.blHead[t]; qh != noRec {
			qr := e.recs.At(qh)
			e.blHead[t] = qr.next
			if e.blHead[t] == noRec {
				e.blTail[t] = noRec
			}
			e.backlogN[t]--
			e.totBacklog--
			e.dispatch(qr)
		} else if e.busy[t] == 0 {
			e.lastIdle[t] = now
			if e.ready[t] > 0 && e.ctrl[t]&reapArmed == 0 {
				e.ctrl[t] |= reapArmed
				e.armTev(t, tevReap, e.cfg.Profile.IdleInstanceTimeout)
			}
		}
	}
}

// armTev schedules a per-tenant control event after d.
func (e *engine) armTev(t int32, kind uint8, d sim.Time) {
	h, ev := e.tevs.Alloc()
	if ev.fire == nil {
		hh := h
		ev.fire = func() { e.control(hh) }
	}
	ev.tenant = t
	ev.kind = kind
	e.k.At(e.k.Now()+d, ev.fire)
}

// control runs one per-tenant control event.
func (e *engine) control(h int32) {
	ev := e.tevs.At(h)
	t, kind := ev.tenant, ev.kind
	e.tevs.Free(h)
	p := &e.cfg.Profile
	switch kind {
	case tevScaleEval:
		// The consumption-plan controller: every ScaleEvalInterval,
		// add at most ScaleOutStep instances while work is queued —
		// the rate limit behind the paper's Fig 14 scheduling delays.
		e.backlogEvals++
		e.backlogSum += uint64(e.backlogN[t])
		if e.backlogN[t] > 0 && int(e.ready[t])+int(e.starting[t]) < p.MaxInstances {
			add := p.ScaleOutStep
			if room := p.MaxInstances - int(e.ready[t]) - int(e.starting[t]); add > room {
				add = room
			}
			for i := 0; i < add; i++ {
				e.starting[t]++
				e.res.ColdStarts++
				up := p.ColdStart.Sample(e.svcRNG)
				e.res.ColdWait.Record(up)
				e.tl.AddCold(e.k.Now(), up)
				e.armTev(t, tevInstanceUp, up)
			}
		}
		if e.backlogN[t] > 0 || e.starting[t] > 0 {
			e.armTev(t, tevScaleEval, p.ScaleEvalInterval)
		} else {
			e.ctrl[t] &^= ctrlArmed
		}
	case tevInstanceUp:
		e.starting[t]--
		e.ready[t]++
		e.totWarm++
		e.tl.ObserveWarmPool(e.k.Now(), e.totWarm)
		for int(e.busy[t]) < int(e.ready[t])*p.ConcurrencyPerInstance && e.blHead[t] != noRec {
			qh := e.blHead[t]
			qr := e.recs.At(qh)
			e.blHead[t] = qr.next
			if e.blHead[t] == noRec {
				e.blTail[t] = noRec
			}
			e.backlogN[t]--
			e.totBacklog--
			e.dispatch(qr)
		}
		if e.busy[t] == 0 && e.blHead[t] == noRec {
			e.lastIdle[t] = e.k.Now()
			if e.ctrl[t]&reapArmed == 0 {
				e.ctrl[t] |= reapArmed
				e.armTev(t, tevReap, p.IdleInstanceTimeout)
			}
		}
	case tevReap:
		// Idle eviction: if the tenant has stayed idle the full
		// timeout, the platform reclaims its instances; otherwise
		// re-check when the current idle stretch would mature.
		if e.busy[t] == 0 && e.backlogN[t] == 0 && e.starting[t] == 0 {
			idleFor := e.k.Now() - e.lastIdle[t]
			if idleFor >= p.IdleInstanceTimeout {
				e.totWarm -= int64(e.ready[t])
				e.ready[t] = 0
				e.ctrl[t] &^= reapArmed
				return
			}
			e.armTev(t, tevReap, p.IdleInstanceTimeout-idleFor)
			return
		}
		e.ctrl[t] &^= reapArmed
	}
}

// bill prices every active tenant's accumulated usage and fills the
// cost aggregates. Iteration is in tenant order, so the float sums are
// deterministic.
func (e *engine) bill() {
	if e.cfg.Book == nil {
		return
	}
	memGB := float64(e.cfg.Profile.MemoryMB) / 1024
	for t := 0; t < e.cfg.Tenants; t++ {
		if e.reqCnt[t] == 0 {
			continue
		}
		execSec := float64(e.execNano[t]) / 1e9
		b := e.cfg.Book.Bill(pricing.Usage{
			GBs:      execSec * memGB,
			Requests: int64(e.reqCnt[t]),
			Exec:     time.Duration(e.execNano[t]),
		})
		e.res.TotalBill = e.res.TotalBill.Add(b)
		e.res.BilledTenants++
		e.res.TenantCost.Record(time.Duration(b.Total() * 1e9))
	}
}

// ColdRate returns cold starts as a fraction of arrivals.
func (r *Result) ColdRate() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return float64(r.ColdStarts) / float64(r.Arrivals)
}
