// Package obs provides the measurement-side tooling of the study:
// latency sample collections with percentiles and CDFs, and latency
// breakdowns (queue time vs execution time), mirroring what the paper
// extracted from CloudWatch and Application Insights.
package obs

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"
)

// Samples is a collection of duration observations. The zero value is
// an empty, ready-to-use collection. Samples are not safe for
// concurrent mutation; parallel campaigns collect per-worker shards
// and add them with AddAll.
type Samples struct {
	vals   []time.Duration
	sorted bool
}

// Add appends one observation.
func (s *Samples) Add(d time.Duration) {
	s.vals = append(s.vals, d)
	s.sorted = false
}

// AddAll appends many observations. Fast path: when the collection is
// already in sorted order and ds extends it non-decreasingly, the
// sorted state is kept, so quantile reads after bulk loads of
// pre-sorted shards skip the re-sort entirely.
func (s *Samples) AddAll(ds []time.Duration) {
	if len(ds) == 0 {
		return
	}
	stillSorted := s.sorted || len(s.vals) == 0
	if stillSorted {
		prev := ds[0]
		if len(s.vals) > 0 && s.vals[len(s.vals)-1] > prev {
			stillSorted = false
		}
		for _, d := range ds[1:] {
			if d < prev {
				stillSorted = false
				break
			}
			prev = d
		}
	}
	s.vals = append(s.vals, ds...)
	s.sorted = stillSorted
}

// Len returns the number of observations.
func (s *Samples) Len() int { return len(s.vals) }

func (s *Samples) ensureSorted() {
	if !s.sorted {
		slices.Sort(s.vals)
		s.sorted = true
	}
}

// Sort orders the observations now. Afterwards quantile reads are pure
// (no lazy re-sort), which makes a Samples safe to share across
// concurrent report builders that only read.
func (s *Samples) Sort() { s.ensureSorted() }

// Quantile returns the q-quantile (0..1) with linear interpolation
// (Hyndman–Fan type 7, the numpy/R default). Out-of-range and NaN q
// clamp to the nearest order statistic rather than indexing out of
// bounds: extreme quantiles like p99.9 on small collections
// interpolate within the last gap instead of snapping to the maximum,
// and remain the exact reference the streaming histograms are
// cross-checked against.
func (s *Samples) Quantile(q float64) time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	if math.IsNaN(q) || q <= 0 {
		return s.vals[0]
	}
	if q >= 1 {
		return s.vals[len(s.vals)-1]
	}
	idx := q * float64(len(s.vals)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	// Guard the float edge: q just below 1 can land idx within one ulp
	// of len-1, where Ceil would step past the last element.
	if hi > len(s.vals)-1 {
		hi = len(s.vals) - 1
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return s.vals[hi]
	}
	frac := idx - float64(lo)
	return s.vals[lo] + time.Duration(frac*float64(s.vals[hi]-s.vals[lo]))
}

// Median returns the 50th percentile.
func (s *Samples) Median() time.Duration { return s.Quantile(0.5) }

// P99 returns the 99th percentile.
func (s *Samples) P99() time.Duration { return s.Quantile(0.99) }

// Mean returns the arithmetic mean.
func (s *Samples) Mean() time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range s.vals {
		sum += float64(v)
	}
	return time.Duration(sum / float64(len(s.vals)))
}

// Max returns the largest observation.
func (s *Samples) Max() time.Duration {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value time.Duration
	Frac  float64
}

// CDF returns the empirical CDF sampled at n evenly spaced fractions
// (n >= 2), suitable for plotting Fig 7 / Fig 14 style curves.
func (s *Samples) CDF(n int) []CDFPoint {
	if len(s.vals) == 0 || n < 2 {
		return nil
	}
	s.ensureSorted()
	pts := make([]CDFPoint, n)
	for i := 0; i < n; i++ {
		f := float64(i) / float64(n-1)
		pts[i] = CDFPoint{Value: s.Quantile(f), Frac: f}
	}
	return pts
}

// FracBelow returns the fraction of observations <= d.
func (s *Samples) FracBelow(d time.Duration) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	i := sort.Search(len(s.vals), func(i int) bool { return s.vals[i] > d })
	return float64(i) / float64(len(s.vals))
}

// Breakdown separates an end-to-end latency into the paper's Fig 8 /
// Fig 13 components.
type Breakdown struct {
	ColdStart time.Duration
	QueueTime time.Duration
	ExecTime  time.Duration
	Other     time.Duration
}

// Total returns the summed components.
func (b Breakdown) Total() time.Duration {
	return b.ColdStart + b.QueueTime + b.ExecTime + b.Other
}

// Add returns the component-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		ColdStart: b.ColdStart + o.ColdStart,
		QueueTime: b.QueueTime + o.QueueTime,
		ExecTime:  b.ExecTime + o.ExecTime,
		Other:     b.Other + o.Other,
	}
}

// BreakdownSet aggregates per-run breakdowns and reports the breakdown
// of the run at a given end-to-end quantile (the paper reports the
// 99%ile run's composition).
type BreakdownSet struct {
	runs []Breakdown
}

// Add appends one run's breakdown.
func (bs *BreakdownSet) Add(b Breakdown) { bs.runs = append(bs.runs, b) }

// Len returns the number of runs.
func (bs *BreakdownSet) Len() int { return len(bs.runs) }

// Mean returns the component-wise mean across runs.
func (bs *BreakdownSet) Mean() Breakdown {
	if len(bs.runs) == 0 {
		return Breakdown{}
	}
	var sum Breakdown
	for _, b := range bs.runs {
		sum = sum.Add(b)
	}
	n := time.Duration(len(bs.runs))
	return Breakdown{
		ColdStart: sum.ColdStart / n,
		QueueTime: sum.QueueTime / n,
		ExecTime:  sum.ExecTime / n,
		Other:     sum.Other / n,
	}
}

// AtQuantile returns the breakdown of the run whose total latency sits
// at quantile q.
func (bs *BreakdownSet) AtQuantile(q float64) Breakdown {
	if len(bs.runs) == 0 {
		return Breakdown{}
	}
	sorted := make([]Breakdown, len(bs.runs))
	copy(sorted, bs.runs)
	slices.SortFunc(sorted, func(a, b Breakdown) int { return cmp.Compare(a.Total(), b.Total()) })
	idx := int(q * float64(len(sorted)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// FormatDuration renders a duration compactly for report tables.
func FormatDuration(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fm", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.0fms", float64(d)/float64(time.Millisecond))
	default:
		return d.String()
	}
}

// Table renders rows of labelled cells as a fixed-width text table.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for pad := len(c); pad < widths[i]; pad++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
