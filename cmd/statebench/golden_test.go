package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"statebench/internal/experiments"
	"statebench/internal/obs/metrics"
	"statebench/internal/payload"
)

// golden reads a checked-in reference output captured from the
// pre-provider-registry tree. These files pin two invariants at once:
// the refactor (and any provider registered since) must not move a
// byte of the paper output, and -parallel must change wall-clock time
// only.
func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "testdata", "golden", name))
	if err != nil {
		t.Fatalf("missing golden file (regenerate with scripts in testdata/golden): %v", err)
	}
	return string(b)
}

// render reproduces the default command's output path: every paper
// experiment in order, text tables, one blank line between reports.
func render(t *testing.T, opts experiments.Options) string {
	t.Helper()
	reports, err := experiments.RunAll(experiments.Registry(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, r := range reports {
		buf.WriteString(r.String())
		buf.WriteByte('\n')
	}
	return buf.String()
}

func quickOpts(workers int) experiments.Options {
	o := experiments.QuickOptions()
	o.Seed = 42
	o.Workers = workers
	return o
}

// skipUnderRace keeps the golden replays out of -race runs: each one
// is a full quick- or paper-scale campaign suite (~10-20x slower under
// the detector), and tier2's determinism tests already cover racy
// interleavings. The byte-level golden pin runs in plain tier1.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("golden replay skipped under -race; run plain `go test` for the byte-level pin")
	}
}

func TestQuickOutputMatchesGolden(t *testing.T) {
	skipUnderRace(t)
	want := golden(t, "quick_p1.txt")
	if got := render(t, quickOpts(1)); got != want {
		t.Fatal("quick-scale output diverged from the pre-refactor golden (-parallel 1)")
	}
}

func TestQuickOutputParallelInvariant(t *testing.T) {
	skipUnderRace(t)
	want := golden(t, "quick_p8.txt")
	if got := render(t, quickOpts(8)); got != want {
		t.Fatal("quick-scale output at -parallel 8 diverged from the golden")
	}
}

func TestQuickMetricsMatchGolden(t *testing.T) {
	skipUnderRace(t)
	want := golden(t, "quick_metrics.prom")
	opts := quickOpts(1)
	reg := metrics.NewRegistry()
	opts.Metrics = reg
	if _, err := experiments.RunAll(experiments.Registry(), opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != want {
		t.Fatal("metrics exposition diverged from the golden")
	}
}

// TestQuickOutputCacheOffMatchesGolden replays the quick suite with the
// payload cache disabled and demands the same bytes as the cached run's
// goldens: the cache may change cost, never content. Gated behind
// STATEBENCH_CACHE_OFF=1 (`make golden-cache-off`, run by tier1.5) so
// plain tier1 does not pay for the recompute-everything pass twice.
func TestQuickOutputCacheOffMatchesGolden(t *testing.T) {
	if os.Getenv("STATEBENCH_CACHE_OFF") == "" {
		t.Skip("set STATEBENCH_CACHE_OFF=1 (or run `make golden-cache-off`) for the cache-off cross-check")
	}
	skipUnderRace(t)
	for _, workers := range []int{1, 8} {
		o := quickOpts(workers)
		o.PayloadCache = payload.Disabled()
		name := "quick_p1.txt"
		if workers == 8 {
			name = "quick_p8.txt"
		}
		if got := render(t, o); got != golden(t, name) {
			t.Fatalf("cache-off output diverged from the golden at -parallel %d", workers)
		}
	}
}

// TestDefaultOutputMatchesGolden replays the full paper-scale run, the
// strongest determinism check, on every plain test run (a few seconds
// at Workers 8); like the quick goldens it is skipped under -race.
func TestDefaultOutputMatchesGolden(t *testing.T) {
	skipUnderRace(t)
	want := golden(t, "default_p8.txt")
	o := experiments.DefaultOptions()
	o.Seed = 42
	o.Workers = 8
	if got := render(t, o); got != want {
		t.Fatal("default-scale output diverged from the pre-refactor golden")
	}
}
