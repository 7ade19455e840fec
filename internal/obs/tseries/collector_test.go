package tseries

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// Workers merging private series into a shared collector in racing
// order must yield the same snapshot as a sequential replay — the
// cross-goroutine half of the determinism contract.
func TestCollectorMergeAcrossGoroutines(t *testing.T) {
	recs := randomRecords(3, 4000)
	whole := New(time.Second)
	for _, r := range recs {
		r.apply(whole)
	}
	want := csvOf(t, whole)

	c := NewCollector(0)
	const workers = 8
	c.SetProgress(Progress{Total: workers})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			local := New(c.Interval())
			for i := w; i < len(recs); i += workers {
				recs[i].apply(local)
			}
			c.Merge(local)
			c.AddDone()
		}(w)
	}
	wg.Wait()
	s, p := c.Snapshot()
	if got := csvOf(t, s); got != want {
		t.Fatal("collector snapshot diverged from sequential replay")
	}
	if p.Done != workers || p.Total != workers {
		t.Fatalf("progress = %+v", p)
	}
}

func TestCollectorReplaceAndSnapshotIsolation(t *testing.T) {
	c := NewCollector(0)
	s1 := New(c.Interval())
	s1.AddArrival(0)
	c.Replace(s1)
	snap, _ := c.Snapshot()
	snap.AddArrival(0) // mutating a snapshot must not touch the collector
	s2, _ := c.Snapshot()
	if got := s2.At(0).Arrivals; got != 1 {
		t.Fatalf("arrivals = %d, want 1 (snapshot leaked back)", got)
	}
}

func TestCollectorProgress(t *testing.T) {
	c := NewCollector(0)
	c.SetProgress(Progress{Phase: "campaigns", Total: 10, VirtualTime: 5 * time.Second})
	c.AddDone()
	_, p := c.Snapshot()
	if p.Phase != "campaigns" || p.Done != 1 || p.Total != 10 {
		t.Fatalf("progress = %+v", p)
	}
}

func TestNilCollectorSafe(t *testing.T) {
	var c *Collector
	c.Merge(New(time.Second))
	c.Replace(New(time.Second))
	c.SetProgress(Progress{})
	c.AddDone()
	if c.Interval() != DefaultInterval {
		t.Fatal("nil Interval")
	}
	s, p := c.Snapshot()
	if s != nil || p != (Progress{}) {
		t.Fatal("nil Snapshot leaked state")
	}
}

func TestPrometheusText(t *testing.T) {
	s := New(time.Second)
	s.AddArrival(0)
	s.AddArrival(5 * time.Second)
	s.AddCompletion(5*time.Second, 300*time.Millisecond)
	s.AddCold(5*time.Second, time.Second)
	s.Window(9 * time.Second) // empty trailing window: not "latest"
	out := PrometheusText(s, Progress{Done: 2, Total: 4, VirtualTime: 9 * time.Second})
	for _, want := range []string{
		"statebench_timeline_arrivals_total 2",
		"statebench_timeline_completions_total 1",
		"statebench_timeline_cold_starts_total 1",
		`statebench_window_arrivals{window="5"} 1`,
		`statebench_window_cold_starts{window="5"} 1`,
		"statebench_progress_virtual_seconds 9",
		"statebench_progress_done 2",
		"statebench_progress_total 4",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Deterministic for a fixed snapshot.
	if out != PrometheusText(s, Progress{Done: 2, Total: 4, VirtualTime: 9 * time.Second}) {
		t.Fatal("PrometheusText unstable")
	}
	// Nil series: totals render as zero, no window family.
	nilOut := PrometheusText(nil, Progress{})
	if !strings.Contains(nilOut, "statebench_timeline_arrivals_total 0") ||
		strings.Contains(nilOut, "statebench_window_arrivals") {
		t.Fatalf("nil-series exposition:\n%s", nilOut)
	}
}

// TestServeLive is the -live smoke test: bind an ephemeral port, hit
// every endpoint, and check each serves the snapshot it should.
func TestServeLive(t *testing.T) {
	c := NewCollector(0)
	s := New(c.Interval())
	s.AddArrival(0)
	s.AddCompletion(0, 100*time.Millisecond)
	c.Replace(s)
	c.SetProgress(Progress{Phase: "traffic", Done: 1, Total: 3})

	srv, err := ServeLive("127.0.0.1:0", c.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if out := get("/metrics"); !strings.Contains(out, "statebench_timeline_arrivals_total 1") {
		t.Fatalf("/metrics:\n%s", out)
	}
	if out := get("/timeseries.csv"); !strings.HasPrefix(out, csvHeader+"\n") || !strings.Contains(out, "\n0,0,1,1,") {
		t.Fatalf("/timeseries.csv:\n%s", out)
	}
	if out := get("/timeseries.json"); !strings.Contains(out, `"arrivals": 1`) {
		t.Fatalf("/timeseries.json:\n%s", out)
	}
	if out := get("/progress"); !strings.Contains(out, `"phase": "traffic"`) {
		t.Fatalf("/progress:\n%s", out)
	}
	if out := get("/"); !strings.Contains(out, "/timeseries.csv") {
		t.Fatalf("index:\n%s", out)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status = %s", resp.Status)
	}

	// The CSV endpoint must match WriteCSV byte for byte.
	var buf bytes.Buffer
	snap, _ := c.Snapshot()
	if err := snap.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := get("/timeseries.csv"); got != buf.String() {
		t.Fatal("/timeseries.csv diverged from WriteCSV")
	}
}
