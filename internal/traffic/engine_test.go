package traffic

import (
	"testing"
	"time"

	"statebench/internal/platform"
	"statebench/internal/pricing"
	"statebench/internal/sim"
)

func perRequestCfg() Config {
	return Config{
		Tenants:  5000,
		Duration: 2 * time.Minute,
		Process:  Poisson{Rate: 400},
		Profile:  platform.DefaultAWS().Traffic(),
		Book:     pricing.DefaultAWS(),
		ExecTime: sim.LogNormalDist{Median: 60 * time.Millisecond, Sigma: 0.4, Max: 5 * time.Second},

		CodeSizeMB: 64,
		Seed:       7,
	}
}

func instancePoolCfg() Config {
	return Config{
		Tenants:  500,
		Duration: 2 * time.Minute,
		Process: &MMPP2{
			BaseRate: 100, BurstRate: 900,
			BaseDwell: 20 * time.Second, BurstDwell: 5 * time.Second,
		},
		Profile:  platform.DefaultAzure().Traffic(),
		Book:     pricing.DefaultAzure(),
		ExecTime: sim.LogNormalDist{Median: 150 * time.Millisecond, Sigma: 0.4, Max: 5 * time.Second},
		Seed:     11,
	}
}

// assertIdentical fails unless two results are byte-identical: same
// counters, same histograms bucket for bucket, same bill.
func assertIdentical(t *testing.T, ref, got *Result, label string) {
	t.Helper()
	if got.Arrivals != ref.Arrivals || got.Completions != ref.Completions ||
		got.ColdStarts != ref.ColdStarts || got.Events != ref.Events {
		t.Fatalf("%s: counters diverge: %+v vs %+v", label, got, ref)
	}
	if got.PeakBacklog != ref.PeakBacklog || got.PeakInFlight != ref.PeakInFlight {
		t.Fatalf("%s: backlog stats diverge", label)
	}
	if got.TotalBill != ref.TotalBill {
		t.Fatalf("%s: bill diverges: %v vs %v", label, got.TotalBill, ref.TotalBill)
	}
	hists := []struct {
		name     string
		got, ref interface {
			Count() uint64
			Max() time.Duration
			Quantile(float64) time.Duration
		}
	}{
		{"E2E", &got.E2E, &ref.E2E},
		{"ColdWait", &got.ColdWait, &ref.ColdWait},
		{"QueueWait", &got.QueueWait, &ref.QueueWait},
		{"TenantCost", &got.TenantCost, &ref.TenantCost},
	}
	for _, h := range hists {
		if h.got.Count() != h.ref.Count() || h.got.Max() != h.ref.Max() {
			t.Fatalf("%s: %s count/max diverge", label, h.name)
		}
		for _, q := range []float64{0.5, 0.99, 0.999} {
			if h.got.Quantile(q) != h.ref.Quantile(q) {
				t.Fatalf("%s: %s q%v = %v, want %v", label, h.name, q, h.got.Quantile(q), h.ref.Quantile(q))
			}
		}
	}
}

// TestRunReproducible: same config, same seed, same result.
func TestRunReproducible(t *testing.T) {
	a, b := Run(perRequestCfg()), Run(perRequestCfg())
	assertIdentical(t, a, b, "rerun")
	c := Run(perRequestCfg())
	c2 := perRequestCfg()
	c2.Seed++
	d := Run(c2)
	if c.Arrivals == d.Arrivals && c.E2E.Max() == d.E2E.Max() {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestPerRequestColdWarm checks the warm-entry model: a hot single
// tenant reuses containers (low cold rate), a cold sparse population
// pays cold starts nearly every time.
func TestPerRequestColdWarm(t *testing.T) {
	hot := perRequestCfg()
	hot.Tenants = 1
	hot.Process = Poisson{Rate: 50}
	r := Run(hot)
	if r.Completions != r.Arrivals || r.Arrivals == 0 {
		t.Fatalf("conservation broken: %+v", r)
	}
	if rate := r.ColdRate(); rate > 0.05 {
		t.Fatalf("single hot tenant cold rate = %.3f, want near 0", rate)
	}
	// E2E must sit above exec alone (RTT + entry overhead).
	if r.E2E.Median() < 60*time.Millisecond {
		t.Fatalf("median E2E %v below exec median", r.E2E.Median())
	}

	sparse := perRequestCfg()
	sparse.Tenants = 200000 // each tenant sees ~one request
	sparse.Process = Poisson{Rate: 50}
	sparse.Duration = time.Minute
	r2 := Run(sparse)
	if rate := r2.ColdRate(); rate < 0.9 {
		t.Fatalf("sparse population cold rate = %.3f, want near 1", rate)
	}
	if r2.ColdWait.Count() != r2.ColdStarts {
		t.Fatalf("cold hist count %d != cold starts %d", r2.ColdWait.Count(), r2.ColdStarts)
	}
}

// TestInstancePoolBacklog checks the rate-limited scale controller:
// bursty load on a cold app queues (backlog, queue waits), instances
// come up over multiple evaluations, and everything drains.
func TestInstancePoolBacklog(t *testing.T) {
	r := Run(instancePoolCfg())
	if r.Completions != r.Arrivals || r.Arrivals == 0 {
		t.Fatalf("conservation broken: arrivals=%d completions=%d", r.Arrivals, r.Completions)
	}
	if r.PeakBacklog == 0 {
		t.Fatal("bursty load never built scale-controller backlog")
	}
	if r.QueueWait.Count() != r.Completions {
		t.Fatalf("queue-wait hist %d entries, want %d", r.QueueWait.Count(), r.Completions)
	}
	// Scheduling delay must show the controller's rate limit: p99 well
	// above the p50 (most requests dispatch immediately once scaled).
	if r.QueueWait.P99() < r.QueueWait.Median() {
		t.Fatal("queue wait distribution degenerate")
	}
	if r.ColdStarts == 0 {
		t.Fatal("no instance starts recorded")
	}
}

// TestBilling checks per-tenant billing: only active tenants billed,
// totals positive, and the per-tenant cost distribution populated.
func TestBilling(t *testing.T) {
	r := Run(perRequestCfg())
	if n := r.TenantCost.Count(); n == 0 || n > 5000 {
		t.Fatalf("billed tenants = %d", n)
	}
	if r.TotalBill.Total() <= 0 {
		t.Fatalf("total bill = %v", r.TotalBill)
	}
	nb := perRequestCfg()
	nb.Book = nil
	r2 := Run(nb)
	if r2.TenantCost.Count() != 0 || r2.TotalBill.Total() != 0 {
		t.Fatal("nil book still billed")
	}
}

// TestArenaBounded checks the perf contract behind the arenas: record
// storage is bounded by peak concurrency, not arrivals.
func TestArenaBounded(t *testing.T) {
	cfg := perRequestCfg()
	cfg.Duration = time.Minute
	r := Run(cfg)
	if r.PeakInFlight <= 0 {
		t.Fatal("no in-flight tracking")
	}
	if uint64(r.PeakInFlight) >= r.Arrivals {
		t.Fatalf("peak in-flight %d not bounded below arrivals %d", r.PeakInFlight, r.Arrivals)
	}
}
