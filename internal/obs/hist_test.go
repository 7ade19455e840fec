package obs

import (
	"math"
	"testing"
	"time"
)

// histRNG is a tiny splitmix64 so the tests need no import of
// internal/sim.
type histRNG struct{ s uint64 }

func (r *histRNG) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *histRNG) f64() float64 { return float64(r.next()>>11) / (1 << 53) }

// lognormalish draws a deterministic heavy-tailed latency in ns.
func (r *histRNG) latency() time.Duration {
	u1, u2 := r.f64(), r.f64()
	for u1 == 0 {
		u1 = r.f64()
	}
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return time.Duration(math.Exp(17 + 1.2*z)) // median ~24ms, long tail
}

func TestHistSmallValuesExact(t *testing.T) {
	var h Hist
	for v := time.Duration(0); v < 64; v++ {
		h.Record(v)
	}
	if h.min != 0 || h.Max() != 63 || h.Count() != 64 {
		t.Fatalf("min/max/count = %v/%v/%d", h.min, h.Max(), h.Count())
	}
	// Sub-64ns values occupy exact buckets: the median must be a value
	// actually recorded (the rank-32 observation), not a midpoint
	// approximation.
	if m := h.Median(); m != 31 {
		t.Fatalf("median = %v, want 31", m)
	}
}

func TestHistBucketRoundTrip(t *testing.T) {
	rng := histRNG{s: 7}
	check := func(v int64) {
		idx := histIdx(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIdx(%d) = %d out of range", v, idx)
		}
		lo, hi := histBucketBounds(idx)
		if v < lo || v > hi {
			t.Fatalf("value %d outside its bucket [%d, %d]", v, lo, hi)
		}
		// Documented resolution: width ≤ 1/64 of the smallest member.
		if lo >= 64 && (hi-lo+1) > lo/64 {
			t.Fatalf("bucket [%d, %d] wider than lo/64", lo, hi)
		}
	}
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1 << 20, math.MaxInt64} {
		check(v)
	}
	prev := -1
	for v := int64(0); v < 100000; v++ {
		idx := histIdx(v)
		if idx < prev {
			t.Fatalf("histIdx not monotone at %d", v)
		}
		prev = idx
	}
	for i := 0; i < 100000; i++ {
		check(int64(rng.next() >> 1))
	}
}

// TestHistQuantileAgreesWithSamples is the streaming-vs-exact
// cross-check: on a large heavy-tailed stream, every reported quantile
// must agree with the exact Samples reference within the documented
// 1/128 relative bucket error (plus one order-statistic step, which is
// negligible at this n).
func TestHistQuantileAgreesWithSamples(t *testing.T) {
	rng := histRNG{s: 1}
	var h Hist
	var s Samples
	const n = 200000
	for i := 0; i < n; i++ {
		v := rng.latency()
		h.Record(v)
		s.Add(v)
	}
	if h.Count() != n || s.Len() != n {
		t.Fatalf("count mismatch: %d vs %d", h.Count(), s.Len())
	}
	if h.min != s.Quantile(0) || h.Max() != s.Max() {
		t.Fatalf("min/max not exact: %v/%v vs %v/%v", h.min, h.Max(), s.Quantile(0), s.Max())
	}
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999} {
		got, want := float64(h.Quantile(q)), float64(s.Quantile(q))
		if rel := math.Abs(got-want) / want; rel > 1.0/128+0.002 {
			t.Errorf("q=%v: hist %v vs exact %v (rel err %.4f > bound)", q, time.Duration(got), time.Duration(want), rel)
		}
	}
}

// TestHistMergeDeterministic proves merge order and partitioning do
// not change a single bit: the same observations split across 1, 4 and
// 16 partials — merged forward and backward — yield byte-identical
// histograms, the property behind shard- and worker-count-independent
// traffic reports.
func TestHistMergeDeterministic(t *testing.T) {
	const n = 50000
	draw := func() []time.Duration {
		rng := histRNG{s: 99}
		vs := make([]time.Duration, n)
		for i := range vs {
			vs[i] = rng.latency()
		}
		return vs
	}
	vals := draw()
	build := func(parts int, reverse bool) *Hist {
		shards := make([]Hist, parts)
		for i, v := range vals {
			shards[i%parts].Record(v)
		}
		var out Hist
		if reverse {
			for i := parts - 1; i >= 0; i-- {
				out.Merge(&shards[i])
			}
		} else {
			for i := 0; i < parts; i++ {
				out.Merge(&shards[i])
			}
		}
		return &out
	}
	ref := build(1, false)
	for _, parts := range []int{4, 16} {
		for _, rev := range []bool{false, true} {
			got := build(parts, rev)
			if got.Count() != ref.Count() ||
				got.min != ref.min || got.Max() != ref.Max() {
				t.Fatalf("parts=%d rev=%v: summary stats differ", parts, rev)
			}
			for i := range ref.counts {
				if got.counts[i] != ref.counts[i] {
					t.Fatalf("parts=%d rev=%v: bucket %d = %d, want %d", parts, rev, i, got.counts[i], ref.counts[i])
				}
			}
		}
	}
}

func TestHistZeroAndEdgeCases(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.min != 0 || h.Max() != 0 {
		t.Fatal("zero-value histogram must read as zeroes")
	}
	h.Merge(nil)
	var empty Hist
	h.Merge(&empty)
	if h.Count() != 0 {
		t.Fatal("merging empty/nil changed count")
	}
	h.Record(-5 * time.Second) // clamps to 0
	h.Record(time.Hour)
	if h.min != 0 || h.Max() != time.Hour || h.Count() != 2 {
		t.Fatalf("min/max/count = %v/%v/%d", h.min, h.Max(), h.Count())
	}
	if q := h.Quantile(math.NaN()); q != h.min {
		t.Fatalf("NaN quantile = %v, want min", q)
	}
	if q := h.Quantile(2); q != time.Hour {
		t.Fatalf("q>1 = %v, want max", q)
	}
	// Merge into a zero-value (nil-bucket) histogram.
	var dst Hist
	dst.Merge(&h)
	if dst.Count() != 2 || dst.Max() != time.Hour {
		t.Fatalf("merge into zero value: count=%d max=%v", dst.Count(), dst.Max())
	}
}

// TestHistOctaveBoundaryQuantiles pins quantile behavior at the exact
// values where the bucket geometry changes: 63→64 is the exact-to-
// approximate crossover, and every power of two afterwards starts a new
// octave with doubled bucket width. A quantile landing in a boundary
// bucket must stay inside that bucket's [lo, hi] and inside the
// histogram's exact [Min, Max].
func TestHistOctaveBoundaryQuantiles(t *testing.T) {
	boundaries := []int64{63, 64, 65, 127, 128, 129, 255, 256, 1 << 16, 1<<16 + 1, 1 << 40}
	for _, v := range boundaries {
		var h Hist
		h.Record(time.Duration(v))
		// A single observation: every quantile is clamped to it exactly,
		// whatever bucket midpoint the geometry would suggest.
		for _, q := range []float64{0.01, 0.5, 0.99, 1} {
			if got := h.Quantile(q); got != time.Duration(v) {
				t.Fatalf("single obs %d: Quantile(%v) = %d", v, q, got)
			}
		}
	}
	// Adjacent boundary values in one histogram: the median must fall in
	// the right bucket and respect the 1/128 relative error bound.
	var h Hist
	for _, v := range boundaries {
		h.Record(time.Duration(v))
	}
	for i, q := range []float64{0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95} {
		got := float64(h.Quantile(q))
		want := float64(boundaries[i])
		if rel := math.Abs(got-want) / want; rel > 1.0/128 {
			t.Fatalf("q=%v: %v vs boundary %d (rel err %.5f)", q, time.Duration(got), boundaries[i], rel)
		}
	}
	// Exactly at an octave edge the bucket is [edge, edge+width-1]; its
	// midpoint must never be reported below the edge itself.
	var e Hist
	e.Record(128)
	e.Record(1 << 20)
	if m := e.Median(); m < 128 {
		t.Fatalf("median %d below the octave edge it was recorded at", m)
	}
}

// TestHistMergeMinMaxEdges covers the merge paths the deterministic
// cross-check cannot reach: min/max adoption into empty receivers,
// one-sided updates, and the zero-min corner where "empty" and "min
// really is 0" must not be confused.
func TestHistMergeMinMaxEdges(t *testing.T) {
	mk := func(vals ...time.Duration) *Hist {
		var h Hist
		for _, v := range vals {
			h.Record(v)
		}
		return &h
	}
	// Empty receiver adopts o's min even when it is larger than the
	// receiver's zero-valued min field.
	var h Hist
	h.Merge(mk(5*time.Second, 9*time.Second))
	if h.min != 5*time.Second || h.Max() != 9*time.Second {
		t.Fatalf("adopting merge: min/max = %v/%v", h.min, h.Max())
	}
	// One-sided: o extends only the max.
	h.Merge(mk(7*time.Second, 20*time.Second))
	if h.min != 5*time.Second || h.Max() != 20*time.Second {
		t.Fatalf("max-extending merge: min/max = %v/%v", h.min, h.Max())
	}
	// One-sided: o extends only the min — including min 0, which must
	// beat the receiver's positive min despite being the zero value.
	h.Merge(mk(0, 6*time.Second))
	if h.min != 0 || h.Max() != 20*time.Second {
		t.Fatalf("zero-min merge: min/max = %v/%v", h.min, h.Max())
	}
	// o strictly inside [min, max]: nothing moves.
	h.Merge(mk(time.Second, 2*time.Second))
	if h.min != 0 || h.Max() != 20*time.Second || h.Count() != 8 {
		t.Fatalf("interior merge: min/max/count = %v/%v/%d", h.min, h.Max(), h.Count())
	}
	// Self-merge doubles counts and leaves min/max alone.
	s := mk(time.Millisecond, time.Minute)
	s.Merge(s)
	if s.Count() != 4 || s.min != time.Millisecond || s.Max() != time.Minute {
		t.Fatalf("self-merge: count/min/max = %d/%v/%v", s.Count(), s.min, s.Max())
	}
}

// TestHistCountAbove pins the SLO-violation counter: exact at and
// beyond the extremes, bucket-resolution in between (observations in
// d's own bucket count as not-above).
func TestHistCountAbove(t *testing.T) {
	var h Hist
	if h.CountAbove(0) != 0 {
		t.Fatal("empty CountAbove != 0")
	}
	for _, v := range []time.Duration{10, 20, 30, time.Second, time.Minute} {
		h.Record(v)
	}
	cases := []struct {
		d    time.Duration
		want uint64
	}{
		{-time.Second, 5}, // below min (after clamp): everything above
		{5, 5},
		{10, 4}, // exact small values: own bucket not counted
		{25, 3},
		{30, 2},
		{time.Second, 1},
		{time.Minute, 0}, // d >= max: exactly 0
		{2 * time.Minute, 0},
	}
	for _, c := range cases {
		if got := h.CountAbove(c.d); got != c.want {
			t.Fatalf("CountAbove(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Bucket resolution: two values sharing one octave bucket are
	// indistinguishable — CountAbove(lower) may not count the higher
	// one's bucket-mates, but values in strictly higher buckets always
	// count.
	var o Hist
	o.Record(1 << 20)
	o.Record(1<<20 + 1) // same bucket (width 2^14 at this octave)
	o.Record(1 << 21)   // strictly higher bucket
	if got := o.CountAbove(1 << 20); got != 1 {
		t.Fatalf("bucket-mates counted as above: got %d, want 1", got)
	}
}

// TestSamplesP999SmallN is the satellite regression test: extreme
// quantiles on small collections must interpolate within the last gap
// (Hyndman–Fan type 7), never snap to the maximum, and never index
// out of bounds. The pinned values are the exact reference used by
// the streaming-histogram cross-checks.
func TestSamplesP999SmallN(t *testing.T) {
	var s Samples
	for i := 1; i <= 10; i++ {
		s.Add(time.Duration(i) * time.Millisecond)
	}
	// idx = 0.999*9 = 8.991 → 9ms + 0.991*(10ms-9ms), truncated to
	// integer ns by the duration conversion.
	if got, want := s.Quantile(0.999), 9990999*time.Nanosecond; got != want {
		t.Fatalf("P999 over 1..10ms = %v, want %v", got, want)
	}
	if s.Quantile(0.999) >= s.Max() {
		t.Fatal("P999 clamped to max on small n")
	}
	// Two samples: idx = 0.999 → interpolate almost all the way.
	var two Samples
	two.AddAll([]time.Duration{1000, 2000})
	if got := two.Quantile(0.999); got != 1999 {
		t.Fatalf("P999 over {1000, 2000} = %v, want 1999", got)
	}
	// Single sample: every quantile is that sample.
	var one Samples
	one.Add(7)
	for _, q := range []float64{0, 0.5, 0.999, 1, 2, -1, math.NaN()} {
		if got := one.Quantile(q); got != 7 {
			t.Fatalf("Quantile(%v) over one sample = %v, want 7", q, got)
		}
	}
	// NaN and out-of-range q must clamp, not panic or index out of
	// bounds.
	if got := s.Quantile(math.NaN()); got != time.Millisecond {
		t.Fatalf("Quantile(NaN) = %v, want min", got)
	}
	if got := s.Quantile(math.Nextafter(1, 0)); got > s.Max() || got < 9*time.Millisecond {
		t.Fatalf("Quantile(1-ulp) = %v out of range", got)
	}
	if got := s.Quantile(-0.5); got != s.Quantile(0) {
		t.Fatalf("Quantile(-0.5) = %v, want min", got)
	}
}
