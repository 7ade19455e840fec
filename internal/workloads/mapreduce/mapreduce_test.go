package mapreduce

// The test binary links the lowerer registry (the package itself must
// not — see TestPackageImportsNoProviderCode).

import (
	"bytes"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"statebench/internal/core"
	"statebench/internal/flow"
	_ "statebench/internal/flow/lowerers"
	"statebench/internal/payload"
	"statebench/internal/sim"
)

// fastShape keeps package tests quick: a small corpus, modest fan-out.
func fastShape() *Workflow { return &Workflow{Mappers: 5, Reducers: 3, CorpusBytes: 200e3} }

// wantStyles is the substitution claim, spelled out: the IR definition
// must lower to every registered style whose class it defines — five
// Mono/Machine/Queue styles plus both Durable task-hub backends —
// across AWS, Azure, and GCP.
var wantStyles = []core.Impl{
	core.AWSLambda,
	core.AWSStep,
	core.AzFunc,
	core.AzQueue,
	core.AzDorch,
	"Az-Dorch-N",
	"GCP-Func",
	"GCP-Wflow",
}

func invokeOnce(t *testing.T, w *Workflow, impl core.Impl) core.RunStats {
	t.Helper()
	env := core.NewEnv(7)
	dep, err := w.Deploy(env, impl)
	if err != nil {
		t.Fatalf("deploy %s: %v", impl, err)
	}
	var stats core.RunStats
	var runErr error
	env.K.Spawn("test", func(p *sim.Proc) {
		defer env.Stop()
		stats, runErr = dep.Runner.Invoke(p, nil)
	})
	env.K.Run()
	if runErr != nil {
		t.Fatalf("invoke %s: %v", impl, runErr)
	}
	if stats.Err != nil {
		t.Fatalf("run error %s: %v", impl, stats.Err)
	}
	return stats
}

func TestExtraImplsCoverAllThreeProviders(t *testing.T) {
	got := New().ExtraImpls()
	if len(got) != len(wantStyles) {
		t.Fatalf("ExtraImpls = %v, want %v", got, wantStyles)
	}
	for i, impl := range wantStyles {
		if got[i] != impl {
			t.Fatalf("ExtraImpls[%d] = %s, want %s (full: %v)", i, got[i], impl, got)
		}
	}
}

// TestEveryStyleComputesTheSameAnswer runs the workload once per style
// and demands byte-identical final outputs, all equal to a direct
// whole-corpus count. Because every payload is a real count document,
// this catches a lowerer that dropped, duplicated, reordered, or
// truncated any fan-out item.
func TestEveryStyleComputesTheSameAnswer(t *testing.T) {
	w := fastShape()
	want, err := json.Marshal(summarize(countWords(corpusText(w.CorpusBytes))))
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range wantStyles {
		if !core.SupportsImpl(w, impl) {
			t.Fatalf("%s not supported at the test shape", impl)
		}
		stats := invokeOnce(t, w, impl)
		if !bytes.Equal(stats.Output, want) {
			t.Fatalf("%s output %s, want %s", impl, stats.Output, want)
		}
		if stats.E2E <= 0 {
			t.Fatalf("%s reported no latency", impl)
		}
	}
}

// TestPackageImportsNoProviderCode statically enforces the tentpole
// claim: the workload is defined purely against the IR. No non-test
// file of this package may import provider code or even the lowerer
// aggregator.
func TestPackageImportsNoProviderCode(t *testing.T) {
	banned := regexp.MustCompile(`statebench/internal/(aws|azure|gcp)(/|"|$)|statebench/internal/flow/lowerers`)
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, file, src, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if banned.MatchString(path) {
				t.Errorf("%s imports %s: the mapreduce workload must stay provider-neutral", file, path)
			}
		}
	}
}

func TestDeployRejectsBadShapes(t *testing.T) {
	env := core.NewEnv(1)
	defer env.Stop()
	for _, w := range []*Workflow{
		{Mappers: 0, Reducers: 4, CorpusBytes: 1000},
		{Mappers: 4, Reducers: 0, CorpusBytes: 1000},
		{Mappers: flow.MaxFanOut + 1, Reducers: 4, CorpusBytes: 1000},
	} {
		if _, err := w.Deploy(env, core.AWSStep); err == nil {
			t.Errorf("Deploy(%+v) succeeded, want error", w)
		}
	}
}

func TestFlowDefValidatesAndCoversFourClasses(t *testing.T) {
	def, err := New().FlowDef()
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []flow.Class{flow.Mono, flow.Machine, flow.Queue, flow.DurableOrch} {
		if def.Graphs[class] == nil {
			t.Errorf("definition lacks a %s graph", class)
		}
	}
	if def.Graphs[flow.DurableEnt] != nil {
		t.Error("definition unexpectedly defines a DurableEnt graph")
	}
}

func TestWordChunksPartitionExactly(t *testing.T) {
	corpus := corpusText(50e3)
	whole := countWords(corpus)
	for _, m := range []int{1, 3, 8, 17} {
		chunks := wordChunks(corpus, m)
		if len(chunks) != m {
			t.Fatalf("wordChunks(%d) returned %d chunks", m, len(chunks))
		}
		total := make(map[string]int)
		var nbytes int
		for _, c := range chunks {
			mergeCounts(total, countWords(c))
			nbytes += len(c)
		}
		if nbytes != len(corpus) {
			t.Fatalf("m=%d: chunks cover %d of %d bytes", m, nbytes, len(corpus))
		}
		if len(total) != len(whole) {
			t.Fatalf("m=%d: %d distinct words, want %d", m, len(total), len(whole))
		}
		for w, c := range whole {
			if total[w] != c {
				t.Fatalf("m=%d: count[%q] = %d, want %d", m, w, total[w], c)
			}
		}
	}
}

// TestPieceDigestsKeyByContent checks the per-deployment digest memo:
// whatever bytes a stage hands it, and under whichever piece index, the
// digest must be payload.DigestBytes of those bytes, so a stage handed
// the wrong bytes misses the payload cache instead of hitting another
// piece's entry; and a repeat lookup of a piece must not hash again.
func TestPieceDigestsKeyByContent(t *testing.T) {
	const m = 4
	corpus := corpusText(40e3)
	d := newPieceDigests(corpus, m)
	check := func(what string, i int, data []byte) {
		t.Helper()
		if got, want := d.digest(i, data), payload.DigestBytes(data); got != want {
			t.Fatalf("%s: digest(%d) = %x, want %x", what, i, got[:8], want[:8])
		}
	}
	chunks := wordChunks(corpus, m)
	for i, c := range chunks {
		check("aliased chunk", i, c)
	}
	check("aliased corpus", m, corpus)

	check("equal copy", 1, bytes.Clone(chunks[1]))
	differ := bytes.Clone(chunks[2])
	differ[len(differ)/2] ^= 1
	check("same length, different bytes", 2, differ)
	check("out-of-range index", m+1, chunks[0])
	check("negative index", -1, chunks[0])

	sentinel := payload.Digest{1}
	d.sums[3] = sentinel
	if got := d.digest(3, chunks[3]); got != sentinel {
		t.Fatalf("repeat lookup of piece 3 hashed again (got %x)", got[:8])
	}
}

func TestPartitionCountsAreDisjointAndComplete(t *testing.T) {
	counts := countWords(corpusText(20e3))
	parts := partitionCounts(counts, 4)
	merged := make(map[string]int)
	for j, pc := range parts {
		for w, c := range pc {
			if partitionOf(w, 4) != j {
				t.Fatalf("word %q landed in partition %d, belongs in %d", w, j, partitionOf(w, 4))
			}
			if _, dup := merged[w]; dup {
				t.Fatalf("word %q appears in two partitions", w)
			}
			merged[w] = c
		}
	}
	if len(merged) != len(counts) {
		t.Fatalf("partitions carry %d words, want %d", len(merged), len(counts))
	}
}

func TestSummarizeBreaksTiesLexicographically(t *testing.T) {
	s := summarize(map[string]int{"zeta": 3, "alpha": 3, "mid": 2})
	if s.Top != "alpha" || s.Words != 8 || s.Distinct != 3 {
		t.Fatalf("summarize = %+v", s)
	}
}

func TestCorpusTextIsDeterministic(t *testing.T) {
	a, b := corpusText(30e3), corpusText(30e3)
	if !bytes.Equal(a, b) {
		t.Fatal("corpusText is not deterministic")
	}
	if len(a) < 30e3 {
		t.Fatalf("corpus only %d bytes", len(a))
	}
}
