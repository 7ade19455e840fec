package sim

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func sampleMany(d Dist, n int, seed uint64) []time.Duration {
	r := NewRNG(seed)
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

func TestFixedDist(t *testing.T) {
	d := Fixed{D: 3 * time.Second}
	for _, s := range sampleMany(d, 10, 1) {
		if s != 3*time.Second {
			t.Fatalf("fixed sample = %v", s)
		}
	}
}

func TestUniformDistBounds(t *testing.T) {
	d := UniformDist{Lo: time.Second, Hi: 2 * time.Second}
	for _, s := range sampleMany(d, 1000, 7) {
		if s < time.Second || s > 2*time.Second {
			t.Fatalf("uniform sample %v out of bounds", s)
		}
	}
}

func TestLogNormalMedianAndCap(t *testing.T) {
	d := NewLogNormal(time.Second, 0.5, 10*time.Second)
	samples := sampleMany(d, 20001, 5)
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	med := sorted[len(sorted)/2]
	if med < 900*time.Millisecond || med > 1100*time.Millisecond {
		t.Fatalf("median %v, want ~1s", med)
	}
	for _, s := range samples {
		if s > 10*time.Second {
			t.Fatalf("sample %v exceeds cap", s)
		}
	}
}

// TestLogNormalMatchesPerDrawFormula checks that hoisting the median's
// logarithm into NewLogNormal changes no draw: every sample equals the
// formula that took the logarithm on each draw, bit for bit, under
// caps that bind and caps that do not.
func TestLogNormalMatchesPerDrawFormula(t *testing.T) {
	cases := []struct {
		median time.Duration
		sigma  float64
		limit  time.Duration
	}{
		{20 * time.Millisecond, 0.3, time.Second},
		{1100 * time.Millisecond, 0.5, 20 * time.Second},
		{5 * time.Millisecond, 0.4, 6 * time.Millisecond},
		{time.Second, 2, 0},
		{time.Nanosecond, 0.07, 0},
	}
	for _, c := range cases {
		d := NewLogNormal(c.median, c.sigma, c.limit)
		got, want := NewRNG(3), NewRNG(3)
		for i := 0; i < 20000; i++ {
			w := clampDur(want.LogNormal(math.Log(float64(c.median)), c.sigma))
			if c.limit > 0 && w > c.limit {
				w = c.limit
			}
			if g := d.Sample(got); g != w {
				t.Fatalf("%v draw %d = %d, want %d", d, i, g, w)
			}
		}
	}
}

func TestMixtureWeights(t *testing.T) {
	m := Mixture{
		Weights: []float64{0.9, 0.1},
		Parts:   []Dist{Fixed{D: time.Second}, Fixed{D: 100 * time.Second}},
	}
	samples := sampleMany(m, 10000, 13)
	slow := 0
	for _, s := range samples {
		if s == 100*time.Second {
			slow++
		}
	}
	frac := float64(slow) / float64(len(samples))
	if frac < 0.07 || frac > 0.13 {
		t.Fatalf("slow fraction %.3f, want ~0.1", frac)
	}
}

// Property: no distribution ever produces a negative duration.
func TestPropertyNonNegativeSamples(t *testing.T) {
	dists := []Dist{
		Fixed{D: time.Second},
		UniformDist{Lo: 0, Hi: time.Minute},
		NewLogNormal(time.Second, 2, 0),
		Mixture{Weights: []float64{1, 1}, Parts: []Dist{NewLogNormal(time.Second, 2, 0), Fixed{}}},
	}
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		for _, d := range dists {
			for i := 0; i < 20; i++ {
				if d.Sample(r) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: RNG Float64 is always in [0,1) and Intn in range.
func TestPropertyRNGRanges(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := NewRNG(seed)
		n := int(nRaw%100) + 1
		for i := 0; i < 50; i++ {
			u := r.Float64()
			if u < 0 || u >= 1 {
				return false
			}
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Perm returns a valid permutation.
func TestPropertyPerm(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := NewRNG(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
