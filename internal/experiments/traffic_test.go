package experiments

import (
	"testing"
)

// trafficOpts is a small but non-degenerate sweep: 1000 tenants at
// 200 req/s over the fixed two-minute window, every registered
// provider, all three arrival processes.
func trafficOpts(workers int) Options {
	o := QuickOptions()
	o.Iters = 5
	o.Workers = workers
	return o
}

// TestTrafficWorkersInvariance is the experiment-level half of the
// determinism gate: the rendered traffic report is byte-identical at
// -parallel 1 and 8 (campaign seeds derive from Seed and grid position
// alone).
func TestTrafficWorkersInvariance(t *testing.T) {
	ref, err := TrafficSweep(trafficOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrafficSweep(trafficOpts(8))
	if err != nil {
		t.Fatal(err)
	}
	if ref.String() != got.String() {
		t.Fatalf("traffic report diverges across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s", ref, got)
	}
	if len(ref.Table.Rows) == 0 || len(ref.Table.Rows)%3 != 0 {
		t.Fatalf("row count %d, want 3 processes per provider", len(ref.Table.Rows))
	}
}

// TestTrafficRegistered: the experiment is reachable by ID without
// touching the paper registry (goldens pin the default output).
func TestTrafficRegistered(t *testing.T) {
	if _, err := Find("traffic"); err != nil {
		t.Fatal(err)
	}
	for _, r := range Registry() {
		if r.ID == "traffic" {
			t.Fatal("traffic leaked into the paper registry")
		}
	}
}
