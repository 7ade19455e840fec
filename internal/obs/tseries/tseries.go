// Package tseries is a deterministic, mergeable virtual-time windowed
// telemetry engine — the layer that turns the repository's whole-run
// aggregates (span metrics, obs.Hist campaign histograms) into
// time-resolved series. The paper's headline findings are transient:
// cold-start storms at fan-out, scheduling-delay spikes while the
// Azure scale controller lags, backlog collapse under bursty load. A
// single end-of-run histogram compresses a ten-second anomaly over a
// two-minute run into an invisible blip; fixed-interval windows keep
// the anomaly visible, and the detector in detect.go re-finds it
// mechanically.
//
// # Model
//
// A Series splits virtual time into fixed-width windows (DefaultInterval
// = 1s virtual). Every window holds
//
//   - integer counters: arrivals, completions, cold starts, injected
//     faults — attributed to the window containing the observation's
//     timestamp;
//   - max-gauges: queue depth (scheduler backlog) and warm-pool /
//     ready-instance occupancy, holding the largest value observed in
//     the window;
//   - three obs.Hist streaming histograms: end-to-end latency (E2E),
//     scheduling delay (Sched), and cold-start provisioning delay
//     (Cold), each attributed to the window in which the measured
//     operation *completed*.
//
// # Determinism contract
//
// Recording mutates integer counters and histogram buckets only, in
// kernel execution order; Merge adds counters, max-merges gauges, and
// merges histograms — all commutative and associative. A series
// assembled from per-worker or per-campaign partials is therefore
// bit-identical for every partitioning, and every export (CSV, JSON,
// Prometheus, Chrome counter tracks) renders windows in sorted index
// order — byte-identical at any -parallel worker count and for any
// partitioning into partial series. The tier-2 determinism gates pin
// this.
//
// Like obs.Hist, a Series is single-goroutine: it belongs to one
// Env/Kernel (or one traffic run) and is recorded into only from that
// kernel's goroutine. Cross-goroutine aggregation goes through
// Collector, which guards a merged Series with a mutex the same way
// metrics.Registry guards its series map.
//
// Disabled fast path: instrumentation sites hold a *Series that stays
// nil unless telemetry was requested; every method is nil-safe and
// short-circuits before any allocation or map access.
package tseries

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"statebench/internal/obs"
)

// DefaultInterval is the window width used when none is configured:
// one second of virtual time, fine enough to resolve the paper's
// cold-start storms and controller-lag spikes, coarse enough that a
// two-minute million-tenant run stays at ~120 windows.
const DefaultInterval = time.Second

// Window is one fixed-interval slice of virtual time. All fields are
// exported so exporters and the anomaly detector read them directly;
// mutate only through the Series record methods.
type Window struct {
	// Arrivals counts work admitted in the window (request arrivals,
	// run starts).
	Arrivals uint64
	// Completions counts work finished in the window.
	Completions uint64
	// Colds counts cold starts (container provisions, instance starts)
	// that began or were observed in the window.
	Colds uint64
	// Faults counts injected chaos faults.
	Faults uint64
	// QueueDepth is the largest scheduler backlog observed in the
	// window (requests queued for dispatch; 0 if never observed).
	QueueDepth int64
	// WarmPool is the largest warm-container / ready-instance
	// occupancy observed in the window.
	WarmPool int64
	// E2E holds end-to-end latencies of work completing in the window.
	E2E obs.Hist
	// Sched holds scheduling delays (arrival→dispatch queueing) of
	// dispatches in the window.
	Sched obs.Hist
	// Cold holds cold-start provisioning delays booked in the window.
	Cold obs.Hist
}

// empty reports whether the window holds no observations at all.
func (w *Window) empty() bool {
	return w.Arrivals == 0 && w.Completions == 0 && w.Colds == 0 && w.Faults == 0 &&
		w.QueueDepth == 0 && w.WarmPool == 0 &&
		w.E2E.Count() == 0 && w.Sched.Count() == 0 && w.Cold.Count() == 0
}

// merge folds o into w (commutative: counters add, gauges max,
// histograms merge).
func (w *Window) merge(o *Window) {
	w.Arrivals += o.Arrivals
	w.Completions += o.Completions
	w.Colds += o.Colds
	w.Faults += o.Faults
	if o.QueueDepth > w.QueueDepth {
		w.QueueDepth = o.QueueDepth
	}
	if o.WarmPool > w.WarmPool {
		w.WarmPool = o.WarmPool
	}
	w.E2E.Merge(&o.E2E)
	w.Sched.Merge(&o.Sched)
	w.Cold.Merge(&o.Cold)
}

// Series is a windowed telemetry stream for one kernel/run. Create
// with New; the zero value is not usable. A nil *Series is valid and
// makes every recording method a no-op (the disabled fast path).
type Series struct {
	interval time.Duration
	windows  map[int64]*Window

	// One-entry cursor cache: consecutive observations overwhelmingly
	// land in the current window, so the common case is two compares
	// instead of a map lookup.
	curIdx int64
	cur    *Window
}

// New returns an empty series with the given window width (0 or
// negative selects DefaultInterval).
func New(interval time.Duration) *Series {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Series{interval: interval, windows: make(map[int64]*Window), curIdx: -1}
}

// Interval returns the window width.
func (s *Series) Interval() time.Duration {
	if s == nil {
		return DefaultInterval
	}
	return s.interval
}

// Enabled reports whether the series records observations.
func (s *Series) Enabled() bool { return s != nil }

// Window returns the window containing virtual time t, creating it on
// first touch. Negative times clamp to window 0.
func (s *Series) Window(t time.Duration) *Window {
	idx := int64(0)
	if t > 0 {
		idx = int64(t / s.interval)
	}
	if idx == s.curIdx {
		return s.cur
	}
	w, ok := s.windows[idx]
	if !ok {
		w = &Window{}
		s.windows[idx] = w
	}
	s.curIdx, s.cur = idx, w
	return w
}

// AddArrival books one admitted request/run at t.
func (s *Series) AddArrival(t time.Duration) {
	if s == nil {
		return
	}
	s.Window(t).Arrivals++
}

// AddCompletion books one completion at t with its end-to-end latency.
func (s *Series) AddCompletion(t time.Duration, e2e time.Duration) {
	if s == nil {
		return
	}
	w := s.Window(t)
	w.Completions++
	w.E2E.Record(e2e)
}

// AddCold books one cold start observed at t with its provisioning
// delay.
func (s *Series) AddCold(t time.Duration, delay time.Duration) {
	if s == nil {
		return
	}
	w := s.Window(t)
	w.Colds++
	w.Cold.Record(delay)
}

// AddSched books one dispatch at t with the scheduling delay the work
// item accrued between arrival and dispatch.
func (s *Series) AddSched(t time.Duration, delay time.Duration) {
	if s == nil {
		return
	}
	s.Window(t).Sched.Record(delay)
}

// AddFault books one injected fault at t.
func (s *Series) AddFault(t time.Duration) {
	if s == nil {
		return
	}
	s.Window(t).Faults++
}

// ObserveQueueDepth raises the queue-depth max-gauge of t's window to
// depth.
func (s *Series) ObserveQueueDepth(t time.Duration, depth int64) {
	if s == nil || depth <= 0 {
		return
	}
	w := s.Window(t)
	if depth > w.QueueDepth {
		w.QueueDepth = depth
	}
}

// ObserveWarmPool raises the warm-pool/ready-instance max-gauge of t's
// window to n.
func (s *Series) ObserveWarmPool(t time.Duration, n int64) {
	if s == nil || n <= 0 {
		return
	}
	w := s.Window(t)
	if n > w.WarmPool {
		w.WarmPool = n
	}
}

// Len returns the number of materialized windows.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	return len(s.windows)
}

// Indices returns the materialized window indices in ascending order.
func (s *Series) Indices() []int64 {
	if s == nil {
		return nil
	}
	idx := make([]int64, 0, len(s.windows))
	for i := range s.windows {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return idx
}

// At returns the window with the given index, or nil if it was never
// touched.
func (s *Series) At(idx int64) *Window {
	if s == nil {
		return nil
	}
	return s.windows[idx]
}

// Start returns the virtual start time of window idx.
func (s *Series) Start(idx int64) time.Duration { return time.Duration(idx) * s.Interval() }

// Totals sums the integer counters across all windows.
func (s *Series) Totals() (arrivals, completions, colds, faults uint64) {
	if s == nil {
		return
	}
	for _, w := range s.windows {
		arrivals += w.Arrivals
		completions += w.Completions
		colds += w.Colds
		faults += w.Faults
	}
	return
}

// Merge folds o's windows into s. o is unchanged. Merging is
// commutative and associative; s and o must share an interval (merging
// differently-sized windows would silently misattribute time, so it
// panics — intervals are configuration, not data).
func (s *Series) Merge(o *Series) {
	if s == nil || o == nil || len(o.windows) == 0 {
		return
	}
	if s.interval != o.interval {
		panic(fmt.Sprintf("tseries: merging %v-interval series into %v", o.interval, s.interval))
	}
	for idx, ow := range o.windows {
		w, ok := s.windows[idx]
		if !ok {
			w = &Window{}
			s.windows[idx] = w
		}
		w.merge(ow)
	}
	// The cursor may now alias a window also reachable through the map;
	// that is fine (same pointer), but a merge can add the cursor's
	// index to the map via a different path only if Window() created it
	// there first, so the cache stays coherent.
}

// Clone returns a deep copy (fresh histograms, fresh windows).
func (s *Series) Clone() *Series {
	if s == nil {
		return nil
	}
	c := New(s.interval)
	c.Merge(s)
	return c
}

// SpanWindowed implements the span tracer's window sink
// (span.WindowSink): every finished span is mapped onto windowed
// telemetry by kind. Run spans book an arrival at span start and a
// completion (with E2E latency) at span end; queue spans book
// scheduling delay at dispatch; coldstart spans book a cold start.
// Fault spans are deliberately NOT mapped — faults are booked by the
// chaos injector itself (which runs with or without a tracer), so
// counting its KindFault annotations here would double them. Other
// kinds carry no windowed meaning and are ignored.
func (s *Series) SpanWindowed(kind, name string, start, end time.Duration) {
	if s == nil {
		return
	}
	switch kind {
	case "run":
		s.AddArrival(start)
		s.AddCompletion(end, end-start)
	case "queue":
		s.AddSched(end, end-start)
	case "coldstart":
		s.AddCold(end, end-start)
	}
}

// csvHeader is the exported per-window schema. Quantiles are integer
// nanoseconds: exact, locale-free, byte-stable.
const csvHeader = "window,start_s,arrivals,completions,colds,faults,queue_depth,warm_pool," +
	"e2e_p50_ns,e2e_p99_ns,e2e_max_ns,sched_p50_ns,sched_p99_ns,sched_max_ns,cold_p50_ns,cold_max_ns"

// WriteCSV renders every non-empty window as one CSV row in ascending
// window order. Output is byte-identical for any partitioning of the
// same observations.
func (s *Series) WriteCSV(w io.Writer) error {
	var sb strings.Builder
	sb.WriteString(csvHeader)
	sb.WriteByte('\n')
	if s != nil {
		iv := s.interval.Seconds()
		for _, idx := range s.Indices() {
			win := s.windows[idx]
			if win.empty() {
				continue
			}
			fmt.Fprintf(&sb, "%d,%g,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
				idx, float64(idx)*iv,
				win.Arrivals, win.Completions, win.Colds, win.Faults,
				win.QueueDepth, win.WarmPool,
				int64(win.E2E.Median()), int64(win.E2E.P99()), int64(win.E2E.Max()),
				int64(win.Sched.Median()), int64(win.Sched.P99()), int64(win.Sched.Max()),
				int64(win.Cold.Median()), int64(win.Cold.Max()))
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

// jsonWindow is the JSON export shape of one window.
type jsonWindow struct {
	Window      int64   `json:"window"`
	StartS      float64 `json:"start_s"`
	Arrivals    uint64  `json:"arrivals"`
	Completions uint64  `json:"completions"`
	Colds       uint64  `json:"colds"`
	Faults      uint64  `json:"faults"`
	QueueDepth  int64   `json:"queue_depth"`
	WarmPool    int64   `json:"warm_pool"`
	E2EP50Ns    int64   `json:"e2e_p50_ns"`
	E2EP99Ns    int64   `json:"e2e_p99_ns"`
	SchedP99Ns  int64   `json:"sched_p99_ns"`
	ColdP50Ns   int64   `json:"cold_p50_ns"`
}

// WriteJSON renders the non-empty windows as a JSON array in ascending
// window order.
func (s *Series) WriteJSON(w io.Writer) error {
	out := []jsonWindow{}
	if s != nil {
		iv := s.interval.Seconds()
		for _, idx := range s.Indices() {
			win := s.windows[idx]
			if win.empty() {
				continue
			}
			out = append(out, jsonWindow{
				Window: idx, StartS: float64(idx) * iv,
				Arrivals: win.Arrivals, Completions: win.Completions,
				Colds: win.Colds, Faults: win.Faults,
				QueueDepth: win.QueueDepth, WarmPool: win.WarmPool,
				E2EP50Ns: int64(win.E2E.Median()), E2EP99Ns: int64(win.E2E.P99()),
				SchedP99Ns: int64(win.Sched.P99()), ColdP50Ns: int64(win.Cold.Median()),
			})
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(out)
}
