package sim

import (
	"fmt"
	"math"
	"time"
)

// Dist is a duration distribution that can be sampled with an RNG.
// Distributions are immutable descriptions; sampling is side-effect-free
// except for advancing the RNG stream.
type Dist interface {
	// Sample draws one duration. Implementations must never return a
	// negative duration.
	Sample(r *RNG) time.Duration
	fmt.Stringer
}

func clampDur(f float64) time.Duration {
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	if f > float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(f)
}

// Fixed is a degenerate distribution that always returns D.
type Fixed struct{ D time.Duration }

func (f Fixed) Sample(*RNG) time.Duration { return f.D }
func (f Fixed) String() string            { return fmt.Sprintf("fixed(%v)", f.D) }

// UniformDist samples uniformly in [Lo, Hi].
type UniformDist struct{ Lo, Hi time.Duration }

func (u UniformDist) Sample(r *RNG) time.Duration {
	return clampDur(r.Uniform(float64(u.Lo), float64(u.Hi)))
}
func (u UniformDist) String() string { return fmt.Sprintf("uniform(%v,%v)", u.Lo, u.Hi) }

// LogNormalDist is a lognormal parameterized by its median and the sigma
// of the underlying normal (sigma controls tail weight), optionally
// truncated at a cap (0 = no cap). NewLogNormal builds one; its fields
// are unexported so that no literal can leave mu unset.
type LogNormalDist struct {
	median time.Duration
	sigma  float64
	limit  time.Duration
	mu     float64 // math.Log(median), the underlying normal's mean
}

// NewLogNormal returns the lognormal with the given median and sigma,
// truncated at limit (0 = no cap). It takes the median's logarithm
// once, not on every draw.
func NewLogNormal(median time.Duration, sigma float64, limit time.Duration) LogNormalDist {
	return LogNormalDist{median: median, sigma: sigma, limit: limit, mu: math.Log(float64(median))}
}

func (l LogNormalDist) Sample(r *RNG) time.Duration {
	d := clampDur(r.LogNormal(l.mu, l.sigma))
	if l.limit > 0 && d > l.limit {
		d = l.limit
	}
	return d
}

func (l LogNormalDist) String() string {
	return fmt.Sprintf("lognormal(median=%v,sigma=%.2f)", l.median, l.sigma)
}

// Mixture samples from one of several component distributions with the
// given weights (weights need not sum to 1; they are normalized).
// It models bimodal behavior such as warm-vs-cold paths.
type Mixture struct {
	Weights []float64
	Parts   []Dist
}

func (m Mixture) Sample(r *RNG) time.Duration {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	x := r.Float64() * total
	for i, w := range m.Weights {
		if x < w || i == len(m.Weights)-1 {
			return m.Parts[i].Sample(r)
		}
		x -= w
	}
	return 0
}

func (m Mixture) String() string { return fmt.Sprintf("mixture(%d parts)", len(m.Parts)) }
