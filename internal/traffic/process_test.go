package traffic

import (
	"math"
	"testing"
	"time"

	"statebench/internal/sim"
)

// drawN collects n arrivals from a process starting at t=0.
func drawN(p ArrivalProcess, seed uint64, n int) []sim.Time {
	rng := sim.NewRNG(seed)
	out := make([]sim.Time, n)
	t := sim.Time(0)
	for i := range out {
		t = p.Next(rng, t)
		out[i] = t
	}
	return out
}

// observedRate returns arrivals/sec over the drawn horizon.
func observedRate(ts []sim.Time) float64 {
	if len(ts) == 0 || ts[len(ts)-1] == 0 {
		return 0
	}
	return float64(len(ts)) / ts[len(ts)-1].Seconds()
}

func TestPoissonRate(t *testing.T) {
	p := Poisson{Rate: 250}
	got := observedRate(drawN(p, 3, 100000))
	if math.Abs(got-250)/250 > 0.02 {
		t.Fatalf("observed rate %.1f/s, want ~250/s", got)
	}
	// Arrivals are strictly ordered.
	ts := drawN(p, 4, 1000)
	for i := 1; i < len(ts); i++ {
		if ts[i] <= ts[i-1] {
			t.Fatalf("arrival %d not after predecessor", i)
		}
	}
}

func TestMMPPRateAndBursts(t *testing.T) {
	// Short dwells so the horizon spans thousands of modulation cycles
	// — the rate estimate converges per-cycle, not per-arrival.
	m := &MMPP2{BaseRate: 50, BurstRate: 500, BaseDwell: 3 * time.Second, BurstDwell: time.Second}
	// Long-run rate: (50/s for 3s + 500/s for 1s) per 4s cycle.
	const want = 162.5
	ts := drawN(m, 5, 500000)
	got := observedRate(ts)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("observed rate %.1f/s, want ~%.1f/s", got, want)
	}
	// Burstiness: the interarrival distribution must be overdispersed
	// relative to Poisson (cv² > 1).
	var sum, sq float64
	for i := 1; i < len(ts); i++ {
		g := float64(ts[i] - ts[i-1])
		sum += g
		sq += g * g
	}
	n := float64(len(ts) - 1)
	mean := sum / n
	cv2 := (sq/n - mean*mean) / (mean * mean)
	if cv2 < 1.2 {
		t.Fatalf("cv² = %.2f, want overdispersed (> 1.2)", cv2)
	}
}

func TestDiurnalModulation(t *testing.T) {
	period := 10 * time.Minute
	d := Diurnal{Base: 200, Amp: 0.8, Period: period}
	ts := drawN(d, 6, 400000)
	// The mean only holds over whole periods: measure across the first
	// two full cycles.
	horizon := sim.Time(2 * period)
	inHorizon := 0
	for _, at := range ts {
		if at >= horizon {
			break
		}
		inHorizon++
	}
	if got := float64(inHorizon) / horizon.Seconds(); math.Abs(got-200)/200 > 0.05 {
		t.Fatalf("mean rate %.1f/s over full periods, want ~200/s", got)
	}
	// Quarter-cycle around the sinusoid peak (t = period/4) vs the
	// trough (t = 3·period/4) of the first cycle: with Amp 0.8 the
	// expected ratio is ~6×.
	p := sim.Time(period)
	var peak, trough int
	for _, at := range ts {
		if at >= p {
			break
		}
		switch {
		case at >= p/8 && at < 3*p/8:
			peak++
		case at >= 5*p/8 && at < 7*p/8:
			trough++
		}
	}
	if peak < 3*trough || trough == 0 {
		t.Fatalf("diurnal peak/trough = %d/%d, want strong modulation", peak, trough)
	}
}

// TestProcessDeterminism: the same seed replays the same stream.
func TestProcessDeterminism(t *testing.T) {
	procs := []func() ArrivalProcess{
		func() ArrivalProcess { return Poisson{Rate: 100} },
		func() ArrivalProcess {
			return &MMPP2{BaseRate: 50, BurstRate: 400, BaseDwell: 10 * time.Second, BurstDwell: 2 * time.Second}
		},
		func() ArrivalProcess { return Diurnal{Base: 100, Amp: 0.5, Period: 10 * time.Minute} },
	}
	for _, mk := range procs {
		a := drawN(mk(), 9, 5000)
		b := drawN(mk(), 9, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: stream diverges at %d", mk().String(), i)
			}
		}
	}
}
