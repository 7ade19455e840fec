package tseries

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"statebench/internal/obs/span"
)

// quietBaseline fills windows [0, n) with steady traffic: 100 arrivals,
// 100 completions at 100ms, a handful of warm dispatches, no colds.
func quietBaseline(s *Series, n int) {
	for i := 0; i < n; i++ {
		ts := time.Duration(i) * time.Second
		for j := 0; j < 100; j++ {
			s.AddArrival(ts)
			s.AddCompletion(ts, 100*time.Millisecond)
		}
		s.AddSched(ts, 10*time.Millisecond)
	}
}

func anomaliesByRule(anoms []Anomaly) map[string][]Anomaly {
	m := map[string][]Anomaly{}
	for _, a := range anoms {
		m[a.Rule] = append(m[a.Rule], a)
	}
	return m
}

func TestDetectColdSurge(t *testing.T) {
	s := New(time.Second)
	quietBaseline(s, 30)
	// Window 30: a storm — 80 colds over 100 arrivals.
	ts := 30 * time.Second
	for j := 0; j < 100; j++ {
		s.AddArrival(ts)
	}
	for j := 0; j < 80; j++ {
		s.AddCold(ts, 900*time.Millisecond)
	}
	got := anomaliesByRule(Detect(s, DetectorConfig{}))[RuleColdSurge]
	if len(got) != 1 {
		t.Fatalf("cold-surge anomalies = %d, want 1: %+v", len(got), got)
	}
	a := got[0]
	if a.Window != 30 || a.Windows != 1 || a.Value != 0.8 {
		t.Fatalf("anomaly = %+v", a)
	}
	if a.Start != 30*time.Second || a.End != 31*time.Second {
		t.Fatalf("bounds = [%v,%v)", a.Start, a.End)
	}
	if !strings.Contains(a.Detail, "80 cold starts / 100 arrivals") {
		t.Fatalf("detail = %q", a.Detail)
	}
}

func TestDetectColdSurgeSteadyStateSuppressed(t *testing.T) {
	// A uniformly cold run (per-request model): once the trailing
	// median catches up with the constant rate, nothing is a surge.
	// The first windows DO flag — their baseline is the zero history,
	// exactly the "storm after a quiet period" the rule documents.
	s := New(time.Second)
	for i := 0; i < 60; i++ {
		ts := time.Duration(i) * time.Second
		for j := 0; j < 20; j++ {
			s.AddArrival(ts)
			s.AddCold(ts, 500*time.Millisecond)
		}
	}
	for _, a := range anomaliesByRule(Detect(s, DetectorConfig{}))[RuleColdSurge] {
		if a.Window >= 15 {
			t.Fatalf("steady-state cold window flagged as surge: %+v", a)
		}
	}
}

func TestDetectSchedSpike(t *testing.T) {
	s := New(time.Second)
	quietBaseline(s, 30)
	s.AddSched(30*time.Second, 8*time.Second)
	got := anomaliesByRule(Detect(s, DetectorConfig{}))[RuleSchedSpike]
	if len(got) != 1 || got[0].Window != 30 {
		t.Fatalf("sched-spike = %+v", got)
	}
	// Below the absolute floor: never a spike, whatever the baseline.
	s2 := New(time.Second)
	quietBaseline(s2, 30)
	s2.AddSched(30*time.Second, 800*time.Millisecond)
	if got := anomaliesByRule(Detect(s2, DetectorConfig{}))[RuleSchedSpike]; len(got) != 0 {
		t.Fatalf("sub-floor spike flagged: %+v", got)
	}
}

func TestDetectBacklogGrowth(t *testing.T) {
	s := New(time.Second)
	for i, d := range []int64{5, 20, 80, 300, 900, 900, 100} {
		s.ObserveQueueDepth(time.Duration(i)*time.Second, d)
	}
	got := anomaliesByRule(Detect(s, DetectorConfig{}))[RuleBacklogGrowth]
	if len(got) != 1 {
		t.Fatalf("backlog-growth = %+v", got)
	}
	a := got[0]
	if a.Window != 0 || a.Windows != 5 || a.Value != 900 {
		t.Fatalf("anomaly = %+v", a)
	}
	if !strings.Contains(a.Detail, "5 -> 900") {
		t.Fatalf("detail = %q", a.Detail)
	}
}

func TestDetectBacklogGrowthNeedsConsecutiveWindows(t *testing.T) {
	s := New(time.Second)
	// Growth interrupted by a gap: windows 0,1 then 3,4 — no run of 3.
	s.ObserveQueueDepth(0, 10)
	s.ObserveQueueDepth(1*time.Second, 100)
	s.ObserveQueueDepth(3*time.Second, 200)
	s.ObserveQueueDepth(4*time.Second, 400)
	if got := anomaliesByRule(Detect(s, DetectorConfig{}))[RuleBacklogGrowth]; len(got) != 0 {
		t.Fatalf("gapped growth flagged: %+v", got)
	}
}

func TestDetectSLOBurn(t *testing.T) {
	s := New(time.Second)
	ts := 5 * time.Second
	for j := 0; j < 80; j++ {
		s.AddCompletion(ts, 100*time.Millisecond)
	}
	for j := 0; j < 20; j++ {
		s.AddCompletion(ts, 10*time.Second)
	}
	// Off by default: no SLOTarget, no rule.
	if got := anomaliesByRule(Detect(s, DetectorConfig{}))[RuleSLOBurn]; len(got) != 0 {
		t.Fatalf("slo-burn fired without a target: %+v", got)
	}
	got := anomaliesByRule(Detect(s, DetectorConfig{SLOTarget: 2 * time.Second}))[RuleSLOBurn]
	if len(got) != 1 {
		t.Fatalf("slo-burn = %+v", got)
	}
	if got[0].Value != 0.2 || got[0].Baseline != 0.01 {
		t.Fatalf("anomaly = %+v", got[0])
	}
	if !strings.Contains(got[0].Detail, "20/100 completions") {
		t.Fatalf("detail = %q", got[0].Detail)
	}
}

func TestDetectEmptyAndNil(t *testing.T) {
	if Detect(nil, DetectorConfig{}) != nil {
		t.Fatal("nil series yielded anomalies")
	}
	if Detect(New(time.Second), DetectorConfig{}) != nil {
		t.Fatal("empty series yielded anomalies")
	}
}

// Detect output must be stable: sorted by window then rule, identical
// across repeated evaluations (map iteration must not leak through).
func TestDetectDeterministicOrder(t *testing.T) {
	build := func() *Series {
		s := New(time.Second)
		quietBaseline(s, 30)
		ts := 30 * time.Second
		for j := 0; j < 100; j++ {
			s.AddArrival(ts)
		}
		for j := 0; j < 80; j++ {
			s.AddCold(ts, 900*time.Millisecond)
		}
		s.AddSched(ts, 8*time.Second)
		for i, d := range []int64{5, 50, 500} {
			s.ObserveQueueDepth(ts+time.Duration(i)*time.Second, d)
		}
		return s
	}
	render := func() string {
		return fmt.Sprintf("%+v", Detect(build(), DetectorConfig{}))
	}
	first := render()
	if !strings.Contains(first, RuleColdSurge) || !strings.Contains(first, RuleSchedSpike) ||
		!strings.Contains(first, RuleBacklogGrowth) {
		t.Fatalf("missing rules in:\n%s", first)
	}
	for i := 0; i < 10; i++ {
		if got := render(); got != first {
			t.Fatalf("anomaly log unstable:\n%s\nvs\n%s", first, got)
		}
	}
	// cold-surge sorts before sched-spike within the same window.
	ci := strings.Index(first, RuleColdSurge)
	si := strings.Index(first, RuleSchedSpike)
	if ci > si {
		t.Fatal("rules not sorted by name within a window")
	}
}

func TestLinkSpans(t *testing.T) {
	anoms := []Anomaly{{
		Rule: RuleColdSurge, Window: 10, Windows: 1,
		Start: 10 * time.Second, End: 11 * time.Second,
	}}
	spans := []span.Span{
		// Wrong kind, overlapping: ignored.
		{TraceID: 1, Kind: "run", Start: 10 * time.Second, End: 10500 * time.Millisecond},
		// Right kind, outside the window: ignored (end == anomaly start).
		{TraceID: 2, Kind: "coldstart", Start: 9 * time.Second, End: 10 * time.Second},
		// Right kind, overlapping: linked.
		{TraceID: 3, Kind: "coldstart", Start: 10200 * time.Millisecond, End: 12 * time.Second},
		// Same trace again: deduplicated.
		{TraceID: 3, Kind: "coldstart", Start: 10300 * time.Millisecond, End: 11 * time.Second},
		// Orphan span (TraceID 0): never linked.
		{TraceID: 0, Kind: "coldstart", Start: 10 * time.Second, End: 11 * time.Second},
		{TraceID: 4, Kind: "coldstart", Start: 10 * time.Second, End: 10400 * time.Millisecond},
		{TraceID: 5, Kind: "coldstart", Start: 10 * time.Second, End: 10400 * time.Millisecond},
	}
	LinkSpans(anoms, spans, 2)
	if len(anoms[0].TraceIDs) != 2 || anoms[0].TraceIDs[0] != 3 || anoms[0].TraceIDs[1] != 4 {
		t.Fatalf("TraceIDs = %v, want [3 4] (emit order, capped at 2)", anoms[0].TraceIDs)
	}
}
