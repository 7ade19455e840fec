package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"statebench/internal/core"
	"statebench/internal/obs/tseries"
	"statebench/internal/sim"
	"statebench/internal/traffic"
)

// TestTrafficCSVDependsOnlyOnSeed runs the same small open-loop sweep
// twice: the CSV must come out byte for byte the same, so it carries
// no wall-clock reading.
func TestTrafficCSVDependsOnlyOnSeed(t *testing.T) {
	args := []string{"-csv", "-tenants", "2000", "-rate", "200", "-duration", "5s", "-process", "all"}
	var runs [2]bytes.Buffer
	for i := range runs {
		if err := runTraffic(args, &runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	first, second := runs[0].String(), runs[1].String()
	if first != second {
		t.Fatalf("two runs of one seed differ:\n%s\n---\n%s", first, second)
	}
	// A header, a title, and one row per provider and process.
	if rows := strings.Count(first, "\n"); rows < 2+3 {
		t.Fatalf("CSV has %d lines:\n%s", rows, first)
	}
}

// TestTrafficRejectsNonPositiveRate: a rate that is not positive and
// finite is an error before any run, where it once left the arrival
// chain queueing arrivals at t = 0 without end.
func TestTrafficRejectsNonPositiveRate(t *testing.T) {
	for _, rate := range []string{"0", "-5", "NaN", "+Inf", "-Inf"} {
		var out bytes.Buffer
		err := runTraffic([]string{"-tenants", "1000", "-rate", rate, "-duration", "1s", "-process", "poisson", "-provider", "AWS"}, &out)
		if err == nil || !strings.Contains(err.Error(), "-rate") {
			t.Errorf("-rate %s: error %v, want a -rate error", rate, err)
		}
		if out.Len() != 0 {
			t.Errorf("-rate %s: printed a report:\n%s", rate, out.String())
		}
	}
}

// TestTrafficCSVMatchesGolden pins the open-loop engine's output: three
// providers (both serving models) under all three arrival processes,
// events column included, against testdata/golden/traffic_small.csv.
// Any change to the event order, an RNG draw or a serving-model rule
// moves a byte of it.
func TestTrafficCSVMatchesGolden(t *testing.T) {
	args := []string{"-csv", "-tenants", "20000", "-rate", "2000", "-duration", "1m", "-process", "all"}
	var out bytes.Buffer
	if err := runTraffic(args, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := out.String(), golden(t, "traffic_small.csv"); got != want {
		t.Fatalf("traffic CSV diverged from the golden:\n%s\n--- want\n%s", got, want)
	}
}

// TestTrafficLiveCountsFinishedCampaigns: the progress that -live
// publishes counts a campaign as done only once its run has finished:
// 0 throughout the first campaign, 1 throughout the second, and Total
// after the last.
func TestTrafficLiveCountsFinishedCampaigns(t *testing.T) {
	tlc := tseries.NewCollector(0)
	const campaigns = 2
	live := newTrafficLive(tlc, campaigns, 5*time.Second)
	spec := core.Providers()[0]
	for c := 0; c < campaigns; c++ {
		cfg := traffic.Config{
			Tenants:  200,
			Duration: 5 * time.Second,
			Process:  traffic.Poisson{Rate: 50},
			Profile:  spec.Traffic(),
			Seed:     uint64(c),
		}
		live.record(&cfg, "run")
		publish, windows := cfg.OnWindow, 0
		cfg.OnWindow = func(boundary sim.Time) {
			publish(boundary)
			windows++
			if _, p := tlc.Snapshot(); p.Done != c || p.Total != campaigns {
				t.Fatalf("campaign %d at %v: progress %d/%d, want %d/%d", c, boundary, p.Done, p.Total, c, campaigns)
			}
		}
		traffic.Run(cfg)
		if windows == 0 {
			t.Fatalf("campaign %d crossed no window boundary", c)
		}
		live.finish(cfg, "run")
	}
	if _, p := tlc.Snapshot(); p.Done != campaigns || p.Total != campaigns {
		t.Fatalf("after the sweep: progress %d/%d, want %d/%d", p.Done, p.Total, campaigns, campaigns)
	}
}
