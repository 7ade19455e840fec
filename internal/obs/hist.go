package obs

import (
	"math/bits"
	"time"
)

// Hist is a streaming, mergeable latency histogram with fixed
// log-scaled resolution, the constant-memory replacement for Samples
// in open-loop campaigns where retaining one duration per invocation
// would grow memory with load (hundreds of millions of observations).
//
// # Bucket scheme
//
// Durations are counted in nanoseconds. Values below 64ns get their
// own exact bucket; above that, each power-of-two octave is split into
// 64 sub-buckets (HDR-histogram style):
//
//	idx(v) = v                        v < 64
//	idx(v) = 64*e + (v >> e)          e = bits.Len64(v) - 7
//
// which needs 64*57 + 64 = 3712 buckets to cover every non-negative
// time.Duration — a flat ~29KB regardless of observation count.
//
// # Error bound
//
// A bucket at scale e spans 2^e ns starting at or above 64*2^e ns, so
// a bucket's width is at most 1/64 of the values in it. Quantile
// reads return the bucket midpoint (clamped to the exact observed
// minimum and maximum), giving a relative error of at most 1/128
// (~0.8%) for any quantile; Count and Max are exact. The
// streaming-vs-exact cross-check tests pin this bound.
//
// # Determinism
//
// Record increments integer counters and Merge adds them, both
// commutative and associative, so a histogram merged from per-worker
// or per-campaign partials is bit-identical for every partitioning,
// and every statistic read from it is byte-stable at any -parallel
// worker count — the property the traffic reports rely on.
//
// The zero value is an empty, ready-to-use histogram; bucket storage
// is allocated on first Record.
type Hist struct {
	counts []uint64 // histBuckets entries, lazily allocated
	count  uint64
	min    time.Duration
	max    time.Duration
}

const (
	histSubBits = 6                // 64 sub-buckets per octave
	histSub     = 1 << histSubBits // first histSub values are exact
	histBuckets = histSub * 58     // covers bits.Len64 up to 63
)

// histIdx maps a non-negative duration to its bucket.
func histIdx(v int64) int {
	if v < histSub {
		return int(v)
	}
	e := uint(bits.Len64(uint64(v))) - (histSubBits + 1)
	return int(uint(histSub)*e) + int(uint64(v)>>e)
}

// histBucketBounds returns the [lo, hi] value range of bucket idx.
func histBucketBounds(idx int) (lo, hi int64) {
	if idx < histSub {
		return int64(idx), int64(idx)
	}
	e := uint(idx>>histSubBits) - 1
	lo = int64(uint64(idx-int(e)*histSub) << e)
	return lo, lo + int64(uint64(1)<<e) - 1
}

// Record adds one observation. Negative durations clamp to zero.
func (h *Hist) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
	h.count++
	h.counts[histIdx(int64(d))]++
}

// Merge adds o's observations into h. o is unchanged. Merging is
// commutative and associative: any grouping of the same observations
// produces an identical histogram.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	for i, c := range o.counts {
		if c != 0 {
			h.counts[i] += c
		}
	}
}

// Count returns the number of observations (exact).
func (h *Hist) Count() uint64 { return h.count }

// Max returns the largest observation (exact).
func (h *Hist) Max() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile returns the q-quantile (0..1) to within the documented
// 1/128 relative error: the midpoint of the bucket holding the
// rank-⌈q·count⌉ observation, clamped to the exact [Min, Max].
func (h *Hist) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	if !(q > 0) { // also catches NaN
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := uint64(q*float64(h.count) + 0.5)
	if rank < 1 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			lo, hi := histBucketBounds(i)
			v := time.Duration(lo + (hi-lo)/2)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// CountAbove returns the number of observations strictly greater than
// d, to bucket resolution: observations sharing d's bucket count as
// not-above (so the result can undercount by at most the one bucket's
// population, within the documented 1/128 relative error). Exact when
// d >= Max (0) or d < Min (Count). Used for SLO-violation accounting.
func (h *Hist) CountAbove(d time.Duration) uint64 {
	if h.count == 0 || d >= h.max {
		return 0
	}
	if d < h.min {
		return h.count
	}
	if d < 0 {
		d = 0
	}
	idx := histIdx(int64(d))
	var above uint64
	for i := idx + 1; i < len(h.counts); i++ {
		above += h.counts[i]
	}
	return above
}

// Median returns the 50th percentile.
func (h *Hist) Median() time.Duration { return h.Quantile(0.5) }

// P99 returns the 99th percentile.
func (h *Hist) P99() time.Duration { return h.Quantile(0.99) }

// P999 returns the 99.9th percentile.
func (h *Hist) P999() time.Duration { return h.Quantile(0.999) }
