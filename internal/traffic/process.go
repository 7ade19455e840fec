// Package traffic is the open-loop load layer of the study: arrival
// processes over millions of simulated tenants driving the registered
// providers' serving models through the sim kernel. Closed-loop
// campaigns (core.Measure) fire an invocation and wait for it;
// open-loop traffic keeps arriving whether or not the platform keeps
// up, which is the regime where the paper's scheduling-delay anomalies
// (Fig 10/14) actually emerge.
//
// The package splits into the arrival side (this file: Poisson, bursty
// MMPP and diurnal processes, all driven by a single deterministic RNG
// stream) and the serving side (engine.go: per-request and
// instance-pool models calibrated by each provider's
// platform.TrafficProfile).
package traffic

import (
	"fmt"
	"math"
	"time"

	"statebench/internal/sim"
)

// ArrivalProcess generates the aggregate arrival stream: Next returns
// the absolute virtual time of the arrival after now, advancing any
// internal process state. Implementations draw only from the supplied
// RNG, so a process is replayed identically for the same seed.
type ArrivalProcess interface {
	Next(rng *sim.RNG, now sim.Time) sim.Time
	fmt.Stringer
}

// expGap draws an exponential interarrival gap for rate (1/sec).
func expGap(rng *sim.RNG, rate float64) sim.Time {
	return sim.Time(rng.Exp(1e9 / rate))
}

// Poisson is a homogeneous Poisson process: independent exponential
// interarrival gaps at a constant rate. The superposition of a million
// independent per-tenant Poisson streams is itself Poisson, which is
// what lets one aggregate stream stand in for per-tenant generators
// without a million timer events.
type Poisson struct {
	Rate float64 // arrivals per second
}

// Next implements ArrivalProcess.
func (p Poisson) Next(rng *sim.RNG, now sim.Time) sim.Time {
	return now + expGap(rng, p.Rate)
}

// String implements fmt.Stringer.
func (p Poisson) String() string { return fmt.Sprintf("poisson(%.0f/s)", p.Rate) }

// MMPP2 is a two-state Markov-modulated Poisson process — the standard
// bursty-arrival model: the stream alternates between a baseline state
// and a burst state, each with exponentially distributed dwell times,
// emitting Poisson arrivals at the state's rate. Bursts are what push
// an instance-pool provider's rate-limited scale controller into
// visible backlog.
type MMPP2 struct {
	BaseRate   float64       // arrivals/sec in the baseline state
	BurstRate  float64       // arrivals/sec in the burst state
	BaseDwell  time.Duration // mean time spent in baseline
	BurstDwell time.Duration // mean time spent in burst

	// state: false = baseline, true = burst; stateUntil is when the
	// current dwell ends. Zero value starts in baseline with the first
	// dwell drawn on first use.
	burst      bool
	stateUntil sim.Time
	started    bool
}

// Next implements ArrivalProcess: arrivals are drawn at the current
// state's rate; candidates beyond the dwell boundary are discarded and
// redrawn in the next state (the memoryless property makes restarting
// the exponential at the boundary exact).
func (m *MMPP2) Next(rng *sim.RNG, now sim.Time) sim.Time {
	if !m.started {
		m.started = true
		m.stateUntil = now + sim.Time(rng.Exp(float64(m.BaseDwell)))
	}
	t := now
	for {
		rate := m.BaseRate
		if m.burst {
			rate = m.BurstRate
		}
		cand := t + expGap(rng, rate)
		if cand <= m.stateUntil {
			return cand
		}
		// Dwell expired before the candidate: switch state at the
		// boundary and continue from there.
		t = m.stateUntil
		m.burst = !m.burst
		dwell := m.BaseDwell
		if m.burst {
			dwell = m.BurstDwell
		}
		m.stateUntil = t + sim.Time(rng.Exp(float64(dwell)))
	}
}

// String implements fmt.Stringer.
func (m *MMPP2) String() string {
	return fmt.Sprintf("mmpp(%.0f/s↔%.0f/s)", m.BaseRate, m.BurstRate)
}

// Diurnal is a nonhomogeneous Poisson process with a sinusoidal rate —
// the day/night cycle of aggregate tenant traffic:
//
//	rate(t) = Base · (1 + Amp·sin(2πt/Period))
//
// sampled by Lewis–Shedler thinning: candidates are drawn at the peak
// rate and accepted with probability rate(t)/peak, which is exact for
// any bounded rate function.
type Diurnal struct {
	Base   float64       // mean arrivals/sec
	Amp    float64       // relative swing, 0 ≤ Amp ≤ 1
	Period time.Duration // cycle length (a "day")
}

// rate returns the instantaneous arrival rate at t.
func (d Diurnal) rate(t sim.Time) float64 {
	return d.Base * (1 + d.Amp*math.Sin(2*math.Pi*float64(t)/float64(d.Period)))
}

// Next implements ArrivalProcess via thinning.
func (d Diurnal) Next(rng *sim.RNG, now sim.Time) sim.Time {
	peak := d.Base * (1 + d.Amp)
	t := now
	for {
		t += expGap(rng, peak)
		if rng.Float64()*peak <= d.rate(t) {
			return t
		}
	}
}

// String implements fmt.Stringer.
func (d Diurnal) String() string {
	return fmt.Sprintf("diurnal(%.0f/s±%.0f%%)", d.Base, d.Amp*100)
}
