package traffic

import (
	"testing"
	"time"

	"statebench/internal/obs/tseries"
	"statebench/internal/sim"
)

// The engine must book observable occupancy: a bursty instance-pool
// run shows backlog (queue depth) and warm-pool gauges, and totals
// that agree with the engine's own result counters.
func TestTimelineContents(t *testing.T) {
	cfg := instancePoolCfg()
	tl := tseries.New(0)
	cfg.Timeline = tl
	res := Run(cfg)
	arr, comp, colds, _ := tl.Totals()
	if arr != res.Arrivals || comp != res.Completions || colds != res.ColdStarts {
		t.Fatalf("timeline totals %d/%d/%d disagree with result %d/%d/%d",
			arr, comp, colds, res.Arrivals, res.Completions, res.ColdStarts)
	}
	var peakQ, peakW int64
	for _, idx := range tl.Indices() {
		w := tl.At(idx)
		if w.QueueDepth > peakQ {
			peakQ = w.QueueDepth
		}
		if w.WarmPool > peakW {
			peakW = w.WarmPool
		}
	}
	if peakQ == 0 || peakW == 0 {
		t.Fatalf("gauges never observed: peak queue %d, peak warm %d", peakQ, peakW)
	}
	// The timeline gauge is the total backlog across tenants; the
	// engine's PeakBacklog is the worst single tenant's — total can
	// never be below it.
	if peakQ < int64(res.PeakBacklog) {
		t.Fatalf("windowed total backlog peak %d below per-tenant peak %d", peakQ, res.PeakBacklog)
	}
}

// OnWindow fires at window boundaries in virtual-time order and — being
// a passive tick listener — must not change the run's results.
func TestTimelineOnWindowPassive(t *testing.T) {
	base := Run(instancePoolCfg())

	cfg := instancePoolCfg()
	cfg.Timeline = tseries.New(0)
	var boundaries []sim.Time
	cfg.OnWindow = func(b sim.Time) { boundaries = append(boundaries, b) }
	got := Run(cfg)

	assertIdentical(t, base, got, "with OnWindow")
	if len(boundaries) == 0 {
		t.Fatal("OnWindow never fired")
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			t.Fatalf("boundaries not increasing: %v", boundaries)
		}
		if boundaries[i]%cfg.Timeline.Interval() != 0 {
			t.Fatalf("boundary %v not a window multiple", boundaries[i])
		}
	}
}

// A disabled (nil) timeline leaves results identical to an enabled one
// — telemetry observes, never steers.
func TestTimelineObservationOnly(t *testing.T) {
	plain := Run(perRequestCfg())
	cfg := perRequestCfg()
	cfg.Timeline = tseries.New(time.Second)
	instrumented := Run(cfg)
	assertIdentical(t, plain, instrumented, "timeline on vs off")
}
