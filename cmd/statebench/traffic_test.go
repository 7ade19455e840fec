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
