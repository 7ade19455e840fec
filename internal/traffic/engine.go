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
	Style   platform.ServeStyle
	Process string

	Arrivals    uint64
	Completions uint64
	Events      uint64 // kernel events executed

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
	// the run (zero for per-request providers).
	PeakBacklog  int
	PeakInFlight int

	// TotalBill is the summed bill across tenants; TenantCost is the
	// per-tenant cost distribution in nano-USD (1e9 units = $1),
	// recorded only for tenants that sent traffic.
	TotalBill  pricing.Bill
	TenantCost obs.Hist
}

// EventsPerSecond is unavailable from the Result itself (virtual runs
// have no wall time); callers time Run and divide by Events.

// rec is one in-flight invocation, 32 bytes, pooled in a sim.Arena:
// memory is bounded by peak concurrency, not throughput. Its
// completion event carries its handle and its tenant, so the handler
// loads the record and the tenant at once.
type rec struct {
	next  int32 // backlog chain link (instance-pool style)
	start sim.Time
	rtt   sim.Time
	exec  sim.Time
}

// completion is the argument of an invocation's completion event: the
// record's handle in the low 32 bits, its tenant in the high 32.
func completion(h, t int32) int64 { return int64(uint32(h)) | int64(t)<<32 }

// Control events are every event but a completion: the arrival chain
// (each arrival queues the next), the scale controller's evaluations
// (every ScaleEvalInterval while a tenant has work), instance starts
// and idle reaps. Their argument is the tenant in the low 32 bits and
// the kind in the high 32. The per-tenant ones are demand-driven: a
// tenant has controller events in flight only while it has work or
// idle instances, so a million mostly-idle tenants cost no standing
// timer load.
const (
	ctlInstanceUp = iota
	ctlReap
	ctlArrival
	ctlScaleEval
)

// tenant state flag bits (tenant.ctrl).
const (
	ctrlArmed = 1 << iota
	reapArmed
)

// tenant is one tenant's whole state, one 40-byte record, so an event
// touches one record instead of one element of each of a dozen
// parallel arrays.
//
// The per-request (warm-entry) style mirrors platform.Pool's
// warm-lease semantics in compact form: ready idle containers, all
// conservatively sharing the newest lease expiry, lastIdle+KeepAlive.
// Per-tenant arrival gaps at population scale are long relative to
// lease spread, so collapsing the expiry ladder to its newest rung is
// a sub-percent approximation (see DESIGN.md §11).
type tenant struct {
	// lastIdle is when the tenant's instance pool last fell idle
	// (instance-pool) or its newest warm container was released
	// (per-request).
	lastIdle sim.Time
	execNano int64  // billing: summed execution time
	reqCnt   uint32 // billing: arrivals
	// The backlog (instance-pool): backlogN records chained through
	// rec.next from blHead to blTail.
	blHead   int32
	blTail   int32
	backlogN uint32
	// ready counts ready instances (instance-pool) or idle warm
	// containers (per-request).
	ready    uint16
	starting uint16
	busy     uint16
	ctrl     uint8
}

// engine is one run's state: one 40-byte record per tenant, no
// per-tenant heap objects, so a million tenants fit in 40 MB; the
// records that do churn (in-flight invocations) live in an arena
// bounded by peak concurrency, not throughput, and every event is only
// a Timers entry.
type engine struct {
	cfg Config
	k   *sim.Kernel
	res *Result

	arrRNG *sim.RNG // arrival process + tenant attribution
	svcRNG *sim.RNG // service-side draws (RTT, cold, exec)

	tenants []tenant // indexed by tenant number

	// The kernel Timers of the run's two event sources: completions
	// and control events.
	completions, controls *sim.Timers

	recs sim.Arena[rec]

	inFlight int

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
		cfg.ExecTime = sim.NewLogNormal(80*time.Millisecond, 0.5, 10*time.Second)
	}

	k := sim.NewKernel(cfg.Seed)
	e := &engine{
		cfg: cfg,
		k:   k,
		res: &Result{Style: cfg.Profile.Style, Process: cfg.Process.String()},

		arrRNG: k.Stream("traffic.arrivals"),
		svcRNG: k.Stream("traffic.service"),

		tenants: make([]tenant, cfg.Tenants),

		tl: cfg.Timeline,
	}
	e.completions = k.NewTimers(e.complete)
	e.controls = k.NewTimers(e.control)
	if cfg.Timeline.Enabled() && cfg.OnWindow != nil {
		k.SetTickListener(cfg.Timeline.Interval(), cfg.OnWindow)
	}
	if cfg.Profile.CodeFetchBW > 0 {
		e.coldFetch = sim.Time(cfg.CodeSizeMB * 1e6 / cfg.Profile.CodeFetchBW * 1e9)
	}

	// The arrival chain generates the whole stream; no arrivals are
	// scheduled past Duration, so the run drains naturally.
	if first := cfg.Process.Next(e.arrRNG, 0); first < cfg.Duration {
		e.armControl(0, ctlArrival, first)
	}

	k.Run()
	e.res.Events = k.Executed()
	e.bill()
	return e.res
}

// arrive runs one event of the arrival chain: it admits an invocation
// and queues the next arrival.
func (e *engine) arrive() {
	e.arrival()
	now := e.k.Now()
	if next := e.cfg.Process.Next(e.arrRNG, now); next < e.cfg.Duration {
		e.armControl(0, ctlArrival, next-now)
	}
}

// arrival admits one invocation at the current instant.
func (e *engine) arrival() {
	t := int32(e.arrRNG.Intn(e.cfg.Tenants)) // uniform attribution
	tn := &e.tenants[t]
	tn.reqCnt++
	e.res.Arrivals++
	now := e.k.Now()
	e.tl.AddArrival(now)

	h, r := e.recs.Alloc()
	r.start = now
	r.rtt = e.cfg.Profile.InvokeRTT.Sample(e.svcRNG)
	r.exec = e.cfg.ExecTime.Sample(e.svcRNG)
	e.inFlight++
	if e.inFlight > e.res.PeakInFlight {
		e.res.PeakInFlight = e.inFlight
	}

	if e.cfg.Profile.Style == platform.ServePerRequest {
		var entry sim.Time
		if tn.ready > 0 && tn.lastIdle+e.cfg.Profile.KeepAlive > now {
			tn.ready--
			e.totWarm--
			entry = e.cfg.Profile.WarmStart.Sample(e.svcRNG)
		} else {
			e.totWarm -= int64(tn.ready) // lazily-expired leases surface here
			tn.ready = 0
			e.res.ColdStarts++
			entry = e.cfg.Profile.ColdStart.Sample(e.svcRNG) + e.coldFetch
			e.res.ColdWait.Record(entry)
			e.tl.AddCold(now, entry)
		}
		e.completions.At(now+r.rtt+entry+r.exec, completion(h, t))
		return
	}

	// Instance-pool: dispatch onto a ready instance or queue for the
	// scale controller.
	if int(tn.busy) < int(tn.ready)*e.cfg.Profile.ConcurrencyPerInstance {
		e.dispatch(t, tn, h, r)
		return
	}
	if tn.backlogN == 0 {
		tn.blHead = h
	} else {
		e.recs.At(tn.blTail).next = h
	}
	tn.blTail = h
	tn.backlogN++
	if int(tn.backlogN) > e.res.PeakBacklog {
		e.res.PeakBacklog = int(tn.backlogN)
	}
	e.totBacklog++
	e.tl.ObserveQueueDepth(now, e.totBacklog)
	if tn.ctrl&ctrlArmed == 0 {
		tn.ctrl |= ctrlArmed
		e.armControl(t, ctlScaleEval, e.cfg.Profile.ScaleEvalInterval)
	}
}

// dispatch starts invocation h of tenant t on its instance pool: the
// completion carries the queueing delay accrued so far.
func (e *engine) dispatch(t int32, tn *tenant, h int32, r *rec) {
	now := e.k.Now()
	tn.busy++
	e.res.QueueWait.Record(now - r.start)
	e.tl.AddSched(now, now-r.start)
	disp := e.cfg.Profile.WarmStart.Sample(e.svcRNG)
	e.completions.At(now+disp+r.exec, completion(h, t))
}

// dispatchBacklog starts tenant t's oldest queued invocation.
func (e *engine) dispatchBacklog(t int32, tn *tenant) {
	h := tn.blHead
	qr := e.recs.At(h)
	tn.blHead = qr.next
	tn.backlogN--
	e.totBacklog--
	e.dispatch(t, tn, h, qr)
}

// complete finishes an invocation: streaming aggregation, billing
// accumulators, and container-lifecycle bookkeeping.
func (e *engine) complete(arg int64) {
	h, t := int32(arg), int32(arg>>32)
	r := e.recs.At(h)
	tn := &e.tenants[t]
	now := e.k.Now()
	e.res.Completions++
	e.res.E2E.Record(now - r.start + r.rtt)
	e.tl.AddCompletion(now, now-r.start+r.rtt)
	tn.execNano += int64(r.exec)
	e.inFlight--
	e.recs.Free(h)

	if e.cfg.Profile.Style == platform.ServePerRequest {
		if tn.ready < ^uint16(0) {
			tn.ready++
			e.totWarm++
			e.tl.ObserveWarmPool(now, e.totWarm)
		}
		tn.lastIdle = now
		return
	}
	tn.busy--
	if tn.backlogN > 0 {
		e.dispatchBacklog(t, tn)
	} else if tn.busy == 0 {
		tn.lastIdle = now
		if tn.ready > 0 {
			e.armReap(t)
		}
	}
}

// armReap queues the tenant's idle reap IdleInstanceTimeout ahead,
// unless one is already pending.
func (e *engine) armReap(t int32) {
	if tn := &e.tenants[t]; tn.ctrl&reapArmed == 0 {
		tn.ctrl |= reapArmed
		e.armControl(t, ctlReap, e.cfg.Profile.IdleInstanceTimeout)
	}
}

// armControl queues a control event of the given kind for tenant t (0
// for an arrival, which draws its tenant when it runs) after d.
func (e *engine) armControl(t int32, kind int64, d sim.Time) {
	e.controls.At(e.k.Now()+d, int64(uint32(t))|kind<<32)
}

// control runs one control event.
func (e *engine) control(arg int64) {
	t := int32(arg)
	switch arg >> 32 {
	case ctlArrival:
		e.arrive()
	case ctlScaleEval:
		e.scaleEval(t)
	case ctlReap:
		e.reap(t)
	default:
		e.instanceUp(t)
	}
}

// scaleEval is the consumption-plan controller: every
// ScaleEvalInterval, add at most ScaleOutStep instances while work is
// queued — the rate limit behind the paper's Fig 14 scheduling delays.
func (e *engine) scaleEval(t int32) {
	tn := &e.tenants[t]
	p := &e.cfg.Profile
	if tn.backlogN > 0 && int(tn.ready)+int(tn.starting) < p.MaxInstances {
		add := p.ScaleOutStep
		if room := p.MaxInstances - int(tn.ready) - int(tn.starting); add > room {
			add = room
		}
		for i := 0; i < add; i++ {
			tn.starting++
			e.res.ColdStarts++
			up := p.ColdStart.Sample(e.svcRNG)
			e.res.ColdWait.Record(up)
			e.tl.AddCold(e.k.Now(), up)
			e.armControl(t, ctlInstanceUp, up)
		}
	}
	if tn.backlogN > 0 || tn.starting > 0 {
		e.armControl(t, ctlScaleEval, p.ScaleEvalInterval)
	} else {
		tn.ctrl &^= ctrlArmed
	}
}

// instanceUp brings a started instance into service and drains the
// backlog onto it.
func (e *engine) instanceUp(t int32) {
	tn := &e.tenants[t]
	tn.starting--
	tn.ready++
	e.totWarm++
	e.tl.ObserveWarmPool(e.k.Now(), e.totWarm)
	for int(tn.busy) < int(tn.ready)*e.cfg.Profile.ConcurrencyPerInstance && tn.backlogN > 0 {
		e.dispatchBacklog(t, tn)
	}
	if tn.busy == 0 && tn.backlogN == 0 {
		tn.lastIdle = e.k.Now()
		e.armReap(t)
	}
}

// reap is idle eviction: if the tenant has stayed idle the full
// timeout, the platform reclaims its instances; otherwise it re-checks
// when the current idle stretch would mature.
func (e *engine) reap(t int32) {
	tn := &e.tenants[t]
	p := &e.cfg.Profile
	if tn.busy == 0 && tn.backlogN == 0 && tn.starting == 0 {
		idleFor := e.k.Now() - tn.lastIdle
		if idleFor >= p.IdleInstanceTimeout {
			e.totWarm -= int64(tn.ready)
			tn.ready = 0
			tn.ctrl &^= reapArmed
			return
		}
		e.armControl(t, ctlReap, p.IdleInstanceTimeout-idleFor)
		return
	}
	tn.ctrl &^= reapArmed
}

// bill prices every active tenant's accumulated usage and fills the
// cost aggregates. Iteration is in tenant order, so the float sums are
// deterministic.
func (e *engine) bill() {
	if e.cfg.Book == nil {
		return
	}
	memGB := float64(e.cfg.Profile.MemoryMB) / 1024
	for i := range e.tenants {
		tn := &e.tenants[i]
		if tn.reqCnt == 0 {
			continue
		}
		execSec := float64(tn.execNano) / 1e9
		b := e.cfg.Book.Bill(pricing.Usage{
			GBs:      execSec * memGB,
			Requests: int64(tn.reqCnt),
			Exec:     time.Duration(tn.execNano),
		})
		e.res.TotalBill = e.res.TotalBill.Add(b)
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
