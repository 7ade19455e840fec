package tseries

import (
	"sync"
	"time"
)

// Progress describes how far a run has advanced, for the live
// endpoint. All fields are optional; producers fill what they know.
type Progress struct {
	// Phase names what is running ("campaigns", "traffic", "drain").
	Phase string `json:"phase"`
	// Done/Total count completed work units (experiments, campaigns).
	Done  int `json:"done"`
	Total int `json:"total"`
	// VirtualTime is the producer kernel's clock; VirtualEnd the
	// configured horizon (0 when open-ended).
	VirtualTime time.Duration `json:"virtual_time_ns"`
	VirtualEnd  time.Duration `json:"virtual_end_ns"`
	// Arrivals/Completions mirror the producer's running totals.
	Arrivals    uint64 `json:"arrivals"`
	Completions uint64 `json:"completions"`
}

// Collector aggregates per-campaign (or per-publish) Series across
// goroutines — the cross-worker seam that keeps the Series type itself
// lock-free. Campaign workers record into private Series and Merge
// them in on completion; long single-kernel runs (the traffic engine)
// Replace the collector's snapshot at window boundaries instead. All
// merge operations are commutative, so the collected contents are
// deterministic at any worker count; only Progress (pure status, never
// exported into result files) is last-write-wins.
//
// A nil *Collector is valid: every method is a no-op and Snapshot
// returns nil, giving callers the usual disabled fast path.
type Collector struct {
	mu       sync.Mutex
	interval time.Duration
	s        *Series
	prog     Progress
}

// NewCollector returns an empty collector whose merged series uses the
// given window width (0 selects DefaultInterval).
func NewCollector(interval time.Duration) *Collector {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Collector{interval: interval, s: New(interval)}
}

// Interval returns the window width campaigns should record at.
func (c *Collector) Interval() time.Duration {
	if c == nil {
		return DefaultInterval
	}
	return c.interval
}

// Merge folds a finished campaign's local series into the collector.
func (c *Collector) Merge(local *Series) {
	if c == nil || local == nil {
		return
	}
	c.mu.Lock()
	c.s.Merge(local)
	c.mu.Unlock()
}

// Replace swaps the collector's series for s, which the collector
// takes ownership of (pass a Clone if the producer keeps recording).
// Used by single-kernel producers publishing rolling snapshots.
func (c *Collector) Replace(s *Series) {
	if c == nil || s == nil {
		return
	}
	c.mu.Lock()
	c.s = s
	c.mu.Unlock()
}

// SetProgress publishes run status for the live endpoint.
func (c *Collector) SetProgress(p Progress) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.prog = p
	c.mu.Unlock()
}

// AddDone increments the completed-work counter for campaign-suite
// progress; SetProgress publishes the total.
func (c *Collector) AddDone() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.prog.Done++
	c.mu.Unlock()
}

// Snapshot returns a deep copy of the merged series plus the current
// progress, safe to read while producers keep recording.
func (c *Collector) Snapshot() (*Series, Progress) {
	if c == nil {
		return nil, Progress{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.s.Clone(), c.prog
}
