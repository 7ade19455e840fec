package tseries

import (
	"fmt"
	"sort"
	"time"

	"statebench/internal/obs/span"
)

// This file is the deterministic anomaly detector: rules evaluated
// over a finalized Series that mechanically re-find the transient
// pathologies the paper reads off its figures by eye — cold-start
// storms (Fig 10/13), scheduling-delay spikes while the Azure scale
// controller lags (Fig 13/14), sustained backlog growth under bursty
// open-loop load, and SLO burn. Every rule is arithmetic over window
// counters and histogram quantiles — no randomness, no wall clock —
// so the anomaly log is byte-identical across runs, worker counts and
// partitionings of the recorded series, and is pinned by the timeline
// golden.

// Rule names, in evaluation (and report) order.
const (
	RuleColdSurge     = "cold-surge"
	RuleSchedSpike    = "sched-spike"
	RuleBacklogGrowth = "backlog-growth"
	RuleSLOBurn       = "slo-burn"
)

// Anomaly is one detected incident: a rule firing over one window or a
// run of consecutive windows.
type Anomaly struct {
	// Rule identifies the detector rule that fired.
	Rule string
	// Window is the first affected window index; Windows the number of
	// consecutive windows covered (>= 1).
	Window  int64
	Windows int
	// Start/End are the affected virtual-time range (window bounds).
	Start, End time.Duration
	// Value is the observed magnitude (cold rate, p99 seconds, backlog
	// depth, violation rate) and Baseline the trailing-median reference
	// it was compared against (0 when the rule has no baseline).
	Value    float64
	Baseline float64
	// Detail is a human-readable one-liner for the anomaly log.
	Detail string
	// TraceIDs cross-links the incident to affected span trees (filled
	// by LinkSpans when a tracer ran alongside the telemetry).
	TraceIDs []uint64
}

// DetectorConfig tunes the rules. The zero value is usable: every
// threshold falls back to the documented default, and the SLO rule
// stays off until SLOTarget is set.
type DetectorConfig struct {
	// Trailing is how many preceding windows form the baseline median
	// (default 30). Windows never materialized count as zero — an idle
	// gap lowers the baseline, so a storm after a quiet period is a
	// surge even if the previous storm looked the same.
	Trailing int

	// ColdSurgeFactor is the cold-rate multiple over the trailing
	// median that constitutes a surge (default 3). ColdSurgeMinRate
	// (default 0.25 colds per arrival) and ColdSurgeMinCount (default
	// 3 colds) suppress noise in near-idle windows.
	ColdSurgeFactor   float64
	ColdSurgeMinRate  float64
	ColdSurgeMinCount uint64

	// SchedSpikeFactor is the scheduling-delay p99 multiple over the
	// trailing median that constitutes a spike (default 3);
	// SchedSpikeMin (default 1s) is the absolute floor below which
	// spikes are ignored.
	SchedSpikeFactor float64
	SchedSpikeMin    time.Duration

	// BacklogGrowthWindows is how many consecutive windows of strictly
	// increasing queue depth constitute sustained growth (default 3);
	// BacklogMinDepth (default 10) is the depth the run must reach.
	BacklogGrowthWindows int
	BacklogMinDepth      int64

	// SLOTarget enables the burn-rate rule: completions slower than
	// the target count as violations. SLOBudget is the tolerated
	// violation fraction (default 0.01); SLOBurnFactor the multiple of
	// the budget the windowed violation rate must exceed to flag
	// (default 10 — a window burning >=10x budget exhausts a month of
	// error budget in under three days).
	SLOTarget     time.Duration
	SLOBudget     float64
	SLOBurnFactor float64
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Trailing <= 0 {
		c.Trailing = 30
	}
	if c.ColdSurgeFactor <= 0 {
		c.ColdSurgeFactor = 3
	}
	if c.ColdSurgeMinRate <= 0 {
		c.ColdSurgeMinRate = 0.25
	}
	if c.ColdSurgeMinCount == 0 {
		c.ColdSurgeMinCount = 3
	}
	if c.SchedSpikeFactor <= 0 {
		c.SchedSpikeFactor = 3
	}
	if c.SchedSpikeMin <= 0 {
		c.SchedSpikeMin = time.Second
	}
	if c.BacklogGrowthWindows <= 0 {
		c.BacklogGrowthWindows = 3
	}
	if c.BacklogMinDepth <= 0 {
		c.BacklogMinDepth = 10
	}
	if c.SLOBudget <= 0 {
		c.SLOBudget = 0.01
	}
	if c.SLOBurnFactor <= 0 {
		c.SLOBurnFactor = 10
	}
	return c
}

// trailingMedian returns the median of vals over the half-open index
// range [from, to) of per-window values where missing windows
// contribute zero. vals maps window index -> value.
func trailingMedian(vals map[int64]float64, from, to int64) float64 {
	if to <= from {
		return 0
	}
	n := int(to - from)
	xs := make([]float64, 0, n)
	for i := from; i < to; i++ {
		xs = append(xs, vals[i]) // missing -> 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// Detect evaluates the configured rules over s and returns the
// anomalies sorted by first window, then rule name. A nil or empty
// series yields nil.
func Detect(s *Series, cfg DetectorConfig) []Anomaly {
	if s == nil || len(s.windows) == 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	idxs := s.Indices()
	iv := s.interval

	// Pre-extract the per-window inputs the baselines need.
	coldRate := make(map[int64]float64, len(idxs))
	schedP99 := make(map[int64]float64, len(idxs))
	for _, i := range idxs {
		w := s.windows[i]
		if w.Arrivals > 0 {
			coldRate[i] = float64(w.Colds) / float64(w.Arrivals)
		} else if w.Colds > 0 {
			coldRate[i] = float64(w.Colds)
		}
		if w.Sched.Count() > 0 {
			schedP99[i] = w.Sched.P99().Seconds()
		}
	}

	var out []Anomaly
	bounds := func(i int64, n int) (time.Duration, time.Duration) {
		return time.Duration(i) * iv, time.Duration(i+int64(n)) * iv
	}

	// Rule 1: cold-rate surge vs trailing median.
	for _, i := range idxs {
		w := s.windows[i]
		rate := coldRate[i]
		if w.Colds < cfg.ColdSurgeMinCount || rate < cfg.ColdSurgeMinRate {
			continue
		}
		base := trailingMedian(coldRate, i-int64(cfg.Trailing), i)
		if rate < cfg.ColdSurgeFactor*base {
			continue
		}
		st, en := bounds(i, 1)
		out = append(out, Anomaly{
			Rule: RuleColdSurge, Window: i, Windows: 1, Start: st, End: en,
			Value: rate, Baseline: base,
			Detail: fmt.Sprintf("%d cold starts / %d arrivals (rate %.2f, trailing median %.2f, cold p50 %v)",
				w.Colds, w.Arrivals, rate, base, w.Cold.Median().Round(time.Millisecond)),
		})
	}

	// Rule 2: scheduling-delay p99 spike vs trailing median.
	for _, i := range idxs {
		w := s.windows[i]
		if w.Sched.Count() == 0 {
			continue
		}
		p99 := w.Sched.P99()
		if p99 < cfg.SchedSpikeMin {
			continue
		}
		base := trailingMedian(schedP99, i-int64(cfg.Trailing), i)
		if p99.Seconds() < cfg.SchedSpikeFactor*base {
			continue
		}
		st, en := bounds(i, 1)
		out = append(out, Anomaly{
			Rule: RuleSchedSpike, Window: i, Windows: 1, Start: st, End: en,
			Value: p99.Seconds(), Baseline: base,
			Detail: fmt.Sprintf("sched p99 %v over %d dispatches (trailing median %.2fs)",
				p99.Round(time.Millisecond), w.Sched.Count(), base),
		})
	}

	// Rule 3: sustained backlog growth — a maximal run of consecutive
	// windows with strictly increasing queue depth. Missing windows
	// break the run (no observations means no evidence of growth).
	for k := 0; k < len(idxs); {
		j := k
		for j+1 < len(idxs) &&
			idxs[j+1] == idxs[j]+1 &&
			s.windows[idxs[j+1]].QueueDepth > s.windows[idxs[j]].QueueDepth {
			j++
		}
		runLen := j - k + 1
		peak := s.windows[idxs[j]].QueueDepth
		if runLen >= cfg.BacklogGrowthWindows && peak >= cfg.BacklogMinDepth {
			st, en := bounds(idxs[k], runLen)
			out = append(out, Anomaly{
				Rule: RuleBacklogGrowth, Window: idxs[k], Windows: runLen, Start: st, End: en,
				Value: float64(peak), Baseline: float64(s.windows[idxs[k]].QueueDepth),
				Detail: fmt.Sprintf("queue depth grew %d windows, %d -> %d",
					runLen, s.windows[idxs[k]].QueueDepth, peak),
			})
		}
		if j == k {
			k++
		} else {
			k = j
		}
	}

	// Rule 4: SLO burn rate (off unless a target is configured).
	if cfg.SLOTarget > 0 {
		for _, i := range idxs {
			w := s.windows[i]
			if w.Completions == 0 {
				continue
			}
			viol := w.E2E.CountAbove(cfg.SLOTarget)
			rate := float64(viol) / float64(w.Completions)
			if rate < cfg.SLOBurnFactor*cfg.SLOBudget {
				continue
			}
			st, en := bounds(i, 1)
			out = append(out, Anomaly{
				Rule: RuleSLOBurn, Window: i, Windows: 1, Start: st, End: en,
				Value: rate, Baseline: cfg.SLOBudget,
				Detail: fmt.Sprintf("%d/%d completions over the %v SLO (burn %.0fx budget)",
					viol, w.Completions, cfg.SLOTarget, rate/cfg.SLOBudget),
			})
		}
	}

	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Window != out[b].Window {
			return out[a].Window < out[b].Window
		}
		return out[a].Rule < out[b].Rule
	})
	return out
}

// linkKinds maps each rule to the span kinds that evidence it.
var linkKinds = map[string][]string{
	RuleColdSurge:     {"coldstart"},
	RuleSchedSpike:    {"queue"},
	RuleBacklogGrowth: {"hop", "queue"},
	RuleSLOBurn:       {"run"},
}

// LinkSpans cross-links anomalies to the span trees that overlap them:
// for each anomaly, up to max distinct trace IDs of spans whose kind
// evidences the rule and whose interval overlaps the anomaly's window
// range. Spans are scanned in emit order, so the linked IDs are
// deterministic.
func LinkSpans(anoms []Anomaly, spans []span.Span, max int) {
	if len(anoms) == 0 || len(spans) == 0 || max <= 0 {
		return
	}
	for ai := range anoms {
		a := &anoms[ai]
		kinds := linkKinds[a.Rule]
		seen := map[uint64]bool{}
		for _, sp := range spans {
			if sp.TraceID == 0 || seen[sp.TraceID] {
				continue
			}
			if sp.End <= a.Start || sp.Start >= a.End {
				continue
			}
			match := false
			for _, k := range kinds {
				if string(sp.Kind) == k {
					match = true
					break
				}
			}
			if !match {
				continue
			}
			seen[sp.TraceID] = true
			a.TraceIDs = append(a.TraceIDs, sp.TraceID)
			if len(a.TraceIDs) >= max {
				break
			}
		}
	}
}
