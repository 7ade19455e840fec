package optimizer

// The test binary links the lowerer registry so every registered style
// participates in the sweeps (the optimizer package itself imports no
// provider code).

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"strings"
	"testing"
	"time"

	"statebench/internal/core"
	"statebench/internal/flow"
	_ "statebench/internal/flow/lowerers"
	"statebench/internal/payload"
	"statebench/internal/workloads/mapreduce"
)

// testSpace is a fast mapreduce sweep space: 2 memory tiers × 2
// fan-outs × 2 reducer counts across every registered style, with the
// monolith class declared shape-irrelevant (it recomputes the whole
// corpus regardless of mapper/reducer counts).
func testSpace() Space {
	return Space{
		Workload: "mapreduce",
		Build: func(c Config) core.Workflow {
			w := mapreduce.New()
			w.CorpusBytes = 200e3
			w.MemMB = c.MemMB
			if c.FanOut > 0 {
				w.Mappers = c.FanOut
			}
			if c.Chunk > 0 {
				w.Reducers = c.Chunk
			}
			return w
		},
		MemTiersMB:             []int{0, 1024},
		FanOuts:                []int{4, 6},
		Chunks:                 []int{2, 3},
		ShapeIrrelevantClasses: []flow.Class{flow.Mono},
	}
}

func testOptions() Options {
	return Options{Iters: 3, Warmup: 1, Seed: 42, Workers: 1}
}

func sweepCSV(t *testing.T, o Options) string {
	t.Helper()
	r, err := Sweep(testSpace(), o)
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Result{r}); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.String()
}

// TestSweepWorkerInvariance pins the engine's core determinism claim:
// the full candidate record — frontier, dominated set, exclusions,
// delta annotations — is byte-identical at any worker count.
func TestSweepWorkerInvariance(t *testing.T) {
	o := testOptions()
	seq := sweepCSV(t, o)
	o.Workers = 8
	par := sweepCSV(t, o)
	if seq != par {
		t.Fatalf("sweep CSV differs between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestSweepColdSharedEquivalence pins the optimization's safety: the
// shared-engine sweep (cross-campaign payload reuse plus config-level
// delta evaluation) emits the exact bytes of the cold baseline that
// measures every candidate with a private cache. This is also the
// empirical check on the signature collapse rules — if a provider
// billed a collapsed memory tier or a monolith honored fan-out, the
// delta-resolved candidates' rows would diverge from their cold runs.
func TestSweepColdSharedEquivalence(t *testing.T) {
	o := testOptions()
	shared := sweepCSV(t, o)
	o.Cold = true
	cold := sweepCSV(t, o)
	if shared != cold {
		t.Fatalf("shared-engine sweep diverges from cold baseline:\n--- shared ---\n%s\n--- cold ---\n%s", shared, cold)
	}
}

// TestSweepSharedDoesLessWork pins the perf claim deterministically,
// without wall clocks: compute misses (each miss is one real payload
// computation; distinct-key counts are worker-count-independent) in
// the shared sweep must be at most 0.35x the cold sweep's, and delta
// evaluation must collapse the measured candidate set.
func TestSweepSharedDoesLessWork(t *testing.T) {
	space := testSpace()

	o := testOptions()
	eng := payload.NewEngine()
	o.Engine = eng
	shared, err := Sweep(space, o)
	if err != nil {
		t.Fatalf("shared sweep: %v", err)
	}

	o = testOptions()
	o.Cold = true
	cold, err := Sweep(space, o)
	if err != nil {
		t.Fatalf("cold sweep: %v", err)
	}

	measured := 0
	for i := range cold.Candidates {
		if cold.Candidates[i].Status != StatusExcluded {
			measured++
		}
	}
	if cold.Evals != measured {
		t.Fatalf("cold sweep evals = %d, want every measured candidate (%d)", cold.Evals, measured)
	}
	if shared.Evals >= measured {
		t.Fatalf("delta evaluation collapsed nothing: %d evals for %d measured candidates", shared.Evals, measured)
	}

	// Real compute in the shared sweep = distinct keys on the root
	// engine minus the zero-cost campaign memo entries; in the cold
	// sweep every campaign recomputes, so its work is the sum of the
	// per-campaign misses.
	sharedWork := eng.Stats().Misses - int64(shared.Evals)
	coldWork := cold.Payload.Misses
	if sharedWork <= 0 || coldWork <= 0 {
		t.Fatalf("implausible work counts: shared %d, cold %d", sharedWork, coldWork)
	}
	if ratio := float64(sharedWork) / float64(coldWork); ratio > 0.35 {
		t.Fatalf("shared sweep computed %d payloads vs cold %d (ratio %.2f > 0.35)",
			sharedWork, coldWork, ratio)
	}
}

// TestEnumerateCanonicalOrder pins enumeration-order invariance: the
// candidate list does not depend on how the space declares its
// dimension values.
func TestEnumerateCanonicalOrder(t *testing.T) {
	a := Enumerate(testSpace())

	s := testSpace()
	s.MemTiersMB = []int{1024, 0}
	s.FanOuts = []int{6, 4}
	s.Chunks = []int{3, 2}
	impls := core.RegisteredImpls()
	rand.New(rand.NewSource(7)).Shuffle(len(impls), func(i, j int) { impls[i], impls[j] = impls[j], impls[i] })
	s.Impls = impls
	b := Enumerate(s)

	if len(a) != len(b) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Config != b[i].Config || a[i].Status != b[i].Status ||
			a[i].Reason != b[i].Reason || a[i].DeltaOf != b[i].DeltaOf {
			t.Fatalf("candidate %d differs under reordered declaration:\n%+v\nvs\n%+v", i, a[i], b[i])
		}
	}
}

// TestClassifyShardInvariance sweeps the space in two shards (distinct
// memory tiers), merges the shard candidates, re-classifies, and
// checks the result matches the single full sweep — the property that
// lets a sharded search be stitched back into one frontier.
func TestClassifyShardInvariance(t *testing.T) {
	full, err := Sweep(testSpace(), testOptions())
	if err != nil {
		t.Fatalf("full sweep: %v", err)
	}

	var merged []Candidate
	for _, mem := range []int{1024, 0} { // reversed on purpose
		s := testSpace()
		s.MemTiersMB = []int{mem}
		r, err := Sweep(s, testOptions())
		if err != nil {
			t.Fatalf("shard sweep mem=%d: %v", mem, err)
		}
		merged = append(merged, r.Candidates...)
	}
	// Restore canonical order across shards, then re-classify: shard
	// boundaries may have hidden a cross-shard dominator.
	for i := range merged {
		for j := i + 1; j < len(merged); j++ {
			if merged[j].Config.less(merged[i].Config) {
				merged[i], merged[j] = merged[j], merged[i]
			}
		}
	}
	Classify(merged)

	if len(merged) != len(full.Candidates) {
		t.Fatalf("merged shard candidates = %d, full sweep = %d", len(merged), len(full.Candidates))
	}
	for i := range merged {
		f := full.Candidates[i]
		if merged[i].Config != f.Config || merged[i].Status != f.Status ||
			merged[i].Reason != f.Reason || merged[i].Lat != f.Lat || merged[i].Cost != f.Cost {
			t.Fatalf("candidate %d differs between sharded and full sweep:\n%+v\nvs\n%+v", i, merged[i], f)
		}
	}
}

// TestNoSilentSkips: every enumerated candidate appears in the result
// with a status, and every exclusion carries a reason.
func TestNoSilentSkips(t *testing.T) {
	r, err := Sweep(testSpace(), testOptions())
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	want := len(core.RegisteredImpls()) * 2 * 2 * 2
	if len(r.Candidates) != want {
		t.Fatalf("got %d candidates, want %d (impls x mems x fans x chunks)", len(r.Candidates), want)
	}
	for i := range r.Candidates {
		c := &r.Candidates[i]
		switch c.Status {
		case StatusFrontier:
			if c.Reason != "" {
				t.Errorf("%s: frontier candidate has reason %q", c.Config.Label(), c.Reason)
			}
		case StatusDominated, StatusExcluded:
			if c.Reason == "" {
				t.Errorf("%s: %s candidate with empty reason", c.Config.Label(), c.Status)
			}
		default:
			t.Errorf("%s: unclassified candidate (status %q)", c.Config.Label(), c.Status)
		}
	}
}

// TestPicks exercises the SLO and budget selectors against the
// domination structure: the cheapest-under-SLO pick must meet the SLO
// and sit on the frontier (a dominated config can never be the unique
// cheapest at a latency bound), and likewise for fastest-under-budget.
func TestPicks(t *testing.T) {
	r, err := Sweep(testSpace(), testOptions())
	if err != nil {
		t.Fatalf("Sweep: %v", err)
	}
	fr := r.Frontier()
	if len(fr) == 0 {
		t.Fatal("empty frontier")
	}

	// An SLO below every latency yields no pick.
	if c := r.CheapestUnder(0); c != nil {
		t.Fatalf("CheapestUnder(0) = %s, want nil", c.Config.Label())
	}
	if c := r.FastestUnder(0); c != nil {
		t.Fatalf("FastestUnder(0) = %s, want nil", c.Config.Label())
	}

	slo := fr[len(fr)-1].Lat // loosest frontier latency
	pick := r.CheapestUnder(slo)
	if pick == nil {
		t.Fatalf("CheapestUnder(%v) found nothing", slo)
	}
	if pick.Lat > slo {
		t.Fatalf("pick %s violates SLO: %v > %v", pick.Config.Label(), pick.Lat, slo)
	}
	if pick.Status != StatusFrontier {
		t.Fatalf("cheapest-under-SLO pick %s is %s, want frontier", pick.Config.Label(), pick.Status)
	}

	budget := fr[0].Cost * 10
	fast := r.FastestUnder(budget)
	if fast == nil {
		t.Fatalf("FastestUnder(%f) found nothing", budget)
	}
	if fast.Cost > budget {
		t.Fatalf("pick %s violates budget: %f > %f", fast.Config.Label(), fast.Cost, budget)
	}
	if fast.Status != StatusFrontier {
		t.Fatalf("fastest-under-budget pick %s is %s, want frontier", fast.Config.Label(), fast.Status)
	}
}

// lintedWorkflow wraps an IR-defined workload and inflates every
// node's declared output estimate far past any provider's payload cap.
// Every real workload in the suite is lint-clean, so this is how the
// tests prove the advisory plumbing end to end.
type lintedWorkflow struct {
	core.Workflow
}

func (w lintedWorkflow) FlowDef() (*flow.Definition, error) {
	def, err := w.Workflow.(interface {
		FlowDef() (*flow.Definition, error)
	}).FlowDef()
	if err != nil {
		return nil, err
	}
	d := *def
	d.Graphs = make(map[flow.Class]*flow.Graph, len(def.Graphs))
	for cl, g := range def.Graphs {
		g2 := *g
		g2.Nodes = make([]*flow.Node, len(g.Nodes))
		for i, n := range g.Nodes {
			n2 := *n
			n2.OutEst = 1 << 30 // ~1 GiB: over every registered cap
			g2.Nodes[i] = &n2
		}
		d.Graphs[cl] = &g2
	}
	return &d, nil
}

// TestAdvisoriesFlowThrough pins the lint-advisory path: a definition
// whose payload estimates exceed a provider cap must surface findings
// on exactly the candidates whose lowerer declares a cap, and those
// findings must land verbatim in the CSV's advisories column.
func TestAdvisoriesFlowThrough(t *testing.T) {
	s := testSpace()
	inner := s.Build
	s.Build = func(c Config) core.Workflow { return lintedWorkflow{inner(c)} }
	cands := Enumerate(s)

	flagged := 0
	for i := range cands {
		c := &cands[i]
		if c.Status == StatusExcluded {
			continue
		}
		capped := false
		if l, ok := flow.LowererFor(c.Config.Impl); ok {
			capped = l.Caps().PayloadBytes > 0
		}
		if capped != (len(c.Advisories) > 0) {
			t.Fatalf("%s: capped=%v but %d advisories", c.Config.Label(), capped, len(c.Advisories))
		}
		for _, a := range c.Advisories {
			if !strings.Contains(a, "provider cap") || !strings.Contains(a, string(c.Config.Impl)) {
				t.Fatalf("%s: malformed advisory %q", c.Config.Label(), a)
			}
		}
		if capped {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no candidate carried an advisory; lint plumbing is dead")
	}

	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Result{{Workload: s.Workload, Candidates: cands}}); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("re-parse CSV: %v", err)
	}
	advCol := len(rows[0]) - 1
	if rows[0][advCol] != "advisories" {
		t.Fatalf("last CSV column = %q, want advisories", rows[0][advCol])
	}
	inCSV := 0
	for _, row := range rows[1:] {
		if row[advCol] == "" {
			continue
		}
		inCSV++
		if !strings.Contains(row[advCol], "provider cap") {
			t.Fatalf("CSV advisory cell %q lacks the lint finding", row[advCol])
		}
	}
	if inCSV != flagged {
		t.Fatalf("CSV carries %d advisory rows, candidates carried %d", inCSV, flagged)
	}
}

// TestMemoSharesSeries pins the memo contract directly: equal
// signatures share one Series by reference.
func TestMemoSharesSeries(t *testing.T) {
	eng := payload.NewEngine()
	m := NewMemo(eng)
	calls := 0
	measure := func() (*core.Series, error) {
		calls++
		return &core.Series{}, nil
	}
	a, err := m.Series("sig", measure)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Series("sig", measure)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || a != b {
		t.Fatalf("memo did not coalesce: %d calls, shared=%v", calls, a == b)
	}
	if _, err := m.Series("other", measure); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("distinct signature did not measure: %d calls", calls)
	}
}

// TestSweepRepeatability: same options, fresh engines, same bytes —
// and a quick sanity bound that measured latencies are positive.
func TestSweepRepeatability(t *testing.T) {
	a := sweepCSV(t, testOptions())
	b := sweepCSV(t, testOptions())
	if a != b {
		t.Fatalf("repeat sweep differs:\n%s\nvs\n%s", a, b)
	}
	r, err := Sweep(testSpace(), testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if c.Status == StatusExcluded {
			continue
		}
		if c.Lat <= 0 || c.Lat > time.Hour || c.Cost <= 0 {
			t.Errorf("%s: implausible measurement lat=%v cost=%f", c.Config.Label(), c.Lat, c.Cost)
		}
	}
}
