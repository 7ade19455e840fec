package tseries

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// record is one observation, replayable into any Series in any order —
// the currency of the merge-commutativity property tests.
type record struct {
	kind  int // 0 arrival, 1 completion, 2 cold, 3 sched, 4 fault, 5 queue, 6 warm
	t     time.Duration
	value time.Duration
	depth int64
}

func (r record) apply(s *Series) {
	switch r.kind {
	case 0:
		s.AddArrival(r.t)
	case 1:
		s.AddCompletion(r.t, r.value)
	case 2:
		s.AddCold(r.t, r.value)
	case 3:
		s.AddSched(r.t, r.value)
	case 4:
		s.AddFault(r.t)
	case 5:
		s.ObserveQueueDepth(r.t, r.depth)
	case 6:
		s.ObserveWarmPool(r.t, r.depth)
	}
}

func randomRecords(seed int64, n int) []record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]record, n)
	for i := range recs {
		recs[i] = record{
			kind:  rng.Intn(7),
			t:     time.Duration(rng.Int63n(int64(90 * time.Second))),
			value: time.Duration(rng.Int63n(int64(5 * time.Second))),
			depth: rng.Int63n(500) + 1,
		}
	}
	return recs
}

func csvOf(t *testing.T, s *Series) string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestWindowAttribution(t *testing.T) {
	s := New(time.Second)
	s.AddArrival(0)
	s.AddArrival(999 * time.Millisecond)
	s.AddArrival(time.Second) // next window
	s.AddArrival(-time.Second)
	if got := s.At(0).Arrivals; got != 3 {
		t.Fatalf("window 0 arrivals = %d, want 3 (incl. negative-time clamp)", got)
	}
	if got := s.At(1).Arrivals; got != 1 {
		t.Fatalf("window 1 arrivals = %d, want 1", got)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.Start(5); got != 5*time.Second {
		t.Fatalf("Start(5) = %v", got)
	}
}

// The cursor cache must survive out-of-order timestamps: going back to
// an earlier window and forward again may not lose or duplicate counts.
func TestWindowCursorOutOfOrder(t *testing.T) {
	s := New(time.Second)
	for _, sec := range []int{5, 5, 2, 5, 2, 9, 2} {
		s.AddArrival(time.Duration(sec) * time.Second)
	}
	want := map[int64]uint64{2: 3, 5: 3, 9: 1}
	for idx, n := range want {
		if got := s.At(idx).Arrivals; got != n {
			t.Fatalf("window %d arrivals = %d, want %d", idx, got, n)
		}
	}
}

func TestIntervalDefaultsAndTotals(t *testing.T) {
	if got := New(0).Interval(); got != DefaultInterval {
		t.Fatalf("New(0) interval = %v", got)
	}
	var nilS *Series
	if nilS.Interval() != DefaultInterval || nilS.Enabled() {
		t.Fatal("nil series: want default interval and Enabled()=false")
	}
	s := New(time.Second)
	s.AddArrival(0)
	s.AddCompletion(time.Second, 100*time.Millisecond)
	s.AddCold(2*time.Second, time.Second)
	s.AddFault(3 * time.Second)
	s.AddFault(3 * time.Second)
	arr, comp, colds, faults := s.Totals()
	if arr != 1 || comp != 1 || colds != 1 || faults != 2 {
		t.Fatalf("Totals = %d,%d,%d,%d", arr, comp, colds, faults)
	}
}

// Every exported method must be a no-op on a nil receiver — the
// disabled fast path used at every instrumentation site.
func TestNilSeriesSafe(t *testing.T) {
	var s *Series
	s.AddArrival(0)
	s.AddCompletion(0, time.Second)
	s.AddCold(0, time.Second)
	s.AddSched(0, time.Second)
	s.AddFault(0)
	s.ObserveQueueDepth(0, 5)
	s.ObserveWarmPool(0, 5)
	s.Merge(New(time.Second))
	s.SpanWindowed("run", "x", 0, time.Second)
	if s.Len() != 0 || s.Indices() != nil || s.At(0) != nil || s.Clone() != nil {
		t.Fatal("nil series leaked state")
	}
	if got := csvOf(t, s); got != csvHeader+"\n" {
		t.Fatalf("nil CSV = %q", got)
	}
	if s.CounterTracks() != nil {
		t.Fatal("nil CounterTracks != nil")
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil || strings.TrimSpace(buf.String()) != "[]" {
		t.Fatalf("nil JSON = %q, err %v", buf.String(), err)
	}
	arr, comp, colds, faults := s.Totals()
	if arr+comp+colds+faults != 0 {
		t.Fatal("nil Totals nonzero")
	}
}

func TestGaugesMaxSemantics(t *testing.T) {
	s := New(time.Second)
	s.ObserveQueueDepth(0, 3)
	s.ObserveQueueDepth(0, 7)
	s.ObserveQueueDepth(0, 5)
	s.ObserveQueueDepth(0, 0)  // ignored
	s.ObserveQueueDepth(0, -1) // ignored
	s.ObserveWarmPool(0, 2)
	s.ObserveWarmPool(0, 1)
	w := s.At(0)
	if w.QueueDepth != 7 || w.WarmPool != 2 {
		t.Fatalf("gauges = %d/%d, want 7/2", w.QueueDepth, w.WarmPool)
	}
}

// TestMergeCommutative is the core determinism property: replaying one
// observation stream as N partitions merged in any order must produce
// byte-identical CSV, for many random streams and partitionings. This
// is what makes per-window output invariant under the -parallel worker
// count and under how campaigns are split into partial series.
func TestMergeCommutative(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		recs := randomRecords(seed, 2000)
		whole := New(time.Second)
		for _, r := range recs {
			r.apply(whole)
		}
		want := csvOf(t, whole)

		rng := rand.New(rand.NewSource(seed + 1000))
		for trial := 0; trial < 3; trial++ {
			nParts := 1 + rng.Intn(8)
			parts := make([]*Series, nParts)
			for i := range parts {
				parts[i] = New(time.Second)
			}
			for _, r := range recs {
				r.apply(parts[rng.Intn(nParts)])
			}
			merged := New(time.Second)
			for _, i := range rng.Perm(nParts) {
				merged.Merge(parts[i])
			}
			if got := csvOf(t, merged); got != want {
				t.Fatalf("seed %d trial %d: merged CSV diverged from sequential replay\nwant:\n%s\ngot:\n%s",
					seed, trial, want, got)
			}
		}
	}
}

func TestMergeAssociative(t *testing.T) {
	recs := randomRecords(7, 900)
	third := len(recs) / 3
	build := func(lo, hi int) *Series {
		s := New(time.Second)
		for _, r := range recs[lo:hi] {
			r.apply(s)
		}
		return s
	}
	// (a+b)+c
	left := build(0, third)
	left.Merge(build(third, 2*third))
	left.Merge(build(2*third, len(recs)))
	// a+(b+c)
	bc := build(third, 2*third)
	bc.Merge(build(2*third, len(recs)))
	right := build(0, third)
	right.Merge(bc)
	if csvOf(t, left) != csvOf(t, right) {
		t.Fatal("merge is not associative")
	}
}

func TestMergeIntervalMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched intervals did not panic")
		}
	}()
	a := New(time.Second)
	b := New(2 * time.Second)
	b.AddArrival(0)
	a.Merge(b)
}

func TestCloneIsDeep(t *testing.T) {
	s := New(time.Second)
	s.AddCompletion(time.Second, 50*time.Millisecond)
	c := s.Clone()
	c.AddCompletion(time.Second, time.Hour)
	c.AddArrival(30 * time.Second)
	if s.At(1).Completions != 1 || s.At(1).E2E.Max() != 50*time.Millisecond {
		t.Fatal("mutating the clone reached the original's windows")
	}
	if s.Len() != 1 {
		t.Fatal("clone shares the window map")
	}
}

func TestSpanWindowedMapping(t *testing.T) {
	s := New(time.Second)
	s.SpanWindowed("run", "wf", 500*time.Millisecond, 2500*time.Millisecond)
	s.SpanWindowed("queue", "q", 0, 1200*time.Millisecond)
	s.SpanWindowed("coldstart", "c", time.Second, 3*time.Second)
	s.SpanWindowed("fault", "f", 0, time.Second)  // chaos injector books these
	s.SpanWindowed("deploy", "d", 0, time.Second) // no windowed meaning
	if got := s.At(0).Arrivals; got != 1 {
		t.Fatalf("run start arrival in window 0 = %d", got)
	}
	w2 := s.At(2)
	if w2.Completions != 1 || w2.E2E.Max() != 2*time.Second {
		t.Fatalf("run end completion misbooked: %+v", w2)
	}
	if got := s.At(1).Sched.Count(); got != 1 {
		t.Fatalf("queue span sched count = %d", got)
	}
	if s.At(3).Colds != 1 || s.At(3).Cold.Max() != 2*time.Second {
		t.Fatal("coldstart span misbooked")
	}
	_, _, _, faults := s.Totals()
	if faults != 0 {
		t.Fatal("fault spans must not be double-counted by the span sink")
	}
}

// CSV/JSON skip windows that were materialized but never filled (e.g.
// a Window() touch by the cursor), and order rows by index.
func TestExportSkipsEmptyAndSorts(t *testing.T) {
	s := New(time.Second)
	s.AddArrival(40 * time.Second)
	s.AddArrival(3 * time.Second)
	s.Window(10 * time.Second) // touched, stays empty
	got := csvOf(t, s)
	lines := strings.Split(strings.TrimSpace(got), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV lines = %d, want header + 2 rows:\n%s", len(lines), got)
	}
	if !strings.HasPrefix(lines[1], "3,3,") || !strings.HasPrefix(lines[2], "40,40,") {
		t.Fatalf("rows out of order or empty window leaked:\n%s", got)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	if strings.Contains(js, `"window": 10`) || !strings.Contains(js, `"window": 3`) {
		t.Fatalf("JSON export wrong windows:\n%s", js)
	}
}

func TestCounterTracks(t *testing.T) {
	s := New(time.Second)
	s.AddArrival(0)
	s.AddCompletion(time.Second, 200*time.Millisecond)
	s.ObserveQueueDepth(time.Second, 12)
	tracks := s.CounterTracks()
	if len(tracks) != 3 {
		t.Fatalf("tracks = %d", len(tracks))
	}
	names := []string{"rates", "backlog", "latency_ms"}
	for i, tr := range tracks {
		if tr.Name != names[i] {
			t.Fatalf("track %d = %q, want %q", i, tr.Name, names[i])
		}
		if len(tr.Points) != 2 {
			t.Fatalf("track %q points = %d, want 2", tr.Name, len(tr.Points))
		}
	}
	if tracks[0].Points[0].Values["arrivals"] != 1 {
		t.Fatal("rates track missing arrival")
	}
	if tracks[1].Points[1].Values["queue_depth"] != 12 {
		t.Fatal("backlog track missing queue depth")
	}
	if tracks[2].Points[1].Values["e2e_p99"] == 0 {
		t.Fatal("latency track missing e2e p99")
	}
}
