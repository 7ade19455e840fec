package mapreduce

// The test binary links the lowerer registry (the package itself must
// not — see TestPackageImportsNoProviderCode).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"statebench/internal/cloud/blob"
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

// TestPieceDigestsKeyByContent checks the digest table a memoized
// corpus holds: whatever bytes a stage hands it, and under whichever
// piece index, the digest must be payload.DigestBytes of those bytes,
// so a stage handed the wrong bytes misses the payload cache instead
// of hitting another piece's entry; a repeat lookup of a piece must not
// hash again; and every deployment on one engine shares one table per
// mapper count, while an engine with the cache off gives each its own.
func TestPieceDigestsKeyByContent(t *testing.T) {
	const m = 4
	eng := payload.NewEngine()
	c := corpusFor(eng, 40e3)
	d := c.digests(m)
	check := func(what string, i int, data []byte) {
		t.Helper()
		if got, want := d.digest(i, data), payload.DigestBytes(data); got != want {
			t.Fatalf("%s: digest(%d) = %x, want %x", what, i, got[:8], want[:8])
		}
	}
	chunks := wordChunks(c.text, m)
	for i, ch := range chunks {
		check("aliased chunk", i, ch)
	}
	check("aliased corpus", m, c.text)

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

	if corpusFor(eng, 40e3).digests(m) != d {
		t.Error("a second deployment on the same engine got its own table")
	}
	if c.digests(m+1) == d {
		t.Error("another mapper count shares the table")
	}
	off := payload.Disabled()
	if a, b := corpusFor(off, 40e3), corpusFor(off, 40e3); a.digests(m) == b.digests(m) {
		t.Error("with the cache off, two deployments share a table")
	}
}

// TestPieceDigestsHashEachPieceOnce runs 8 goroutines against one
// table, as concurrent sweep workers do: each must read every piece's
// true digest, and afterwards no lookup may hash again (a sentinel
// planted in every slot must come back). Under -race it also checks
// that the hashes are published safely.
func TestPieceDigestsHashEachPieceOnce(t *testing.T) {
	const m, workers = 6, 8
	c := corpusFor(payload.NewEngine(), 60e3)
	chunks := append(wordChunks(c.text, m), c.text)
	want := make([]payload.Digest, len(chunks))
	for i, ch := range chunks {
		want[i] = payload.DigestBytes(ch)
	}
	lookAll := func(d *pieceDigests, want func(i int) payload.Digest) {
		var wg sync.WaitGroup
		errs := make(chan string, workers*len(chunks))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range chunks {
					i := (k + w) % len(chunks) // workers start at different pieces
					if got, wi := d.digest(i, chunks[i]), want(i); got != wi {
						errs <- fmt.Sprintf("worker %d piece %d: got %x, want %x", w, i, got[:8], wi[:8])
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Error(e)
		}
	}
	// The table comes from concurrent lookups too.
	tables := make([]*pieceDigests, workers)
	var wg sync.WaitGroup
	for w := range tables {
		wg.Add(1)
		go func(w int) { defer wg.Done(); tables[w] = c.digests(m) }(w)
	}
	wg.Wait()
	d := tables[0]
	for w, tb := range tables {
		if tb != d {
			t.Fatalf("worker %d got its own table", w)
		}
	}
	lookAll(d, func(i int) payload.Digest { return want[i] })
	sentinel := func(i int) payload.Digest { return payload.Digest{byte(i + 1)} }
	for i := range d.sums {
		d.sums[i] = sentinel(i)
	}
	lookAll(d, sentinel)
}

// freshMerge is the decode-merge-encode a merge stage did on every run
// before its memo.
func freshMerge(docs [][]byte) ([]byte, error) {
	total := make(map[string]int)
	for _, buf := range docs {
		var counts map[string]int
		if err := json.Unmarshal(buf, &counts); err != nil {
			return nil, err
		}
		mergeCounts(total, counts)
	}
	return json.Marshal(total)
}

// checkRuns makes three runs of dep and checks each one's published
// documents against fresh merges, as TestMergeMemoMatchesFreshMerge
// describes. Runs after the first must publish the first run's
// documents themselves: the memo served them.
func checkRuns(p *sim.Proc, w *Workflow, store *blob.Store, dep *core.Deployment, mono bool) error {
	var first [][]byte
	for run := int64(1); run <= 3; run++ {
		stats, err := dep.Runner.Invoke(p, nil)
		if err == nil {
			err = stats.Err
		}
		if err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
		get := func(key string) ([]byte, error) { return store.Get(p, key) }
		result, err := get(resultKey)
		if err != nil {
			return err
		}
		var want []byte
		if mono {
			if want, err = json.Marshal(countWords(corpusText(w.CorpusBytes))); err != nil {
				return err
			}
		} else {
			reduced := make([][]byte, w.Reducers)
			for j := range reduced {
				parts := make([][]byte, w.Mappers)
				for i := range parts {
					if parts[i], err = get(partKey(run, i, j)); err != nil {
						return err
					}
				}
				if reduced[j], err = get(reduceKey(run, j)); err != nil {
					return err
				}
				fresh, err := freshMerge(parts)
				if err != nil {
					return err
				}
				if !bytes.Equal(reduced[j], fresh) {
					return fmt.Errorf("run %d: reduce %d = %.40s…, fresh merge %.40s…", run, j, reduced[j], fresh)
				}
			}
			if want, err = freshMerge(reduced); err != nil {
				return err
			}
			published := append(reduced, result)
			if first == nil {
				first = published
			}
			for j, doc := range published {
				if &doc[0] != &first[j][0] {
					return fmt.Errorf("run %d: document %d was merged again", run, j)
				}
			}
		}
		if !bytes.Equal(result, want) {
			return fmt.Errorf("run %d: result %.40s…, fresh merge %.40s…", run, result, want)
		}
		var counts map[string]int
		if err := json.Unmarshal(result, &counts); err != nil {
			return err
		}
		if summary, _ := json.Marshal(summarize(counts)); !bytes.Equal(stats.Output, summary) {
			return fmt.Errorf("run %d: output %s, want %s", run, stats.Output, summary)
		}
	}
	return nil
}

// TestMergeMemoMatchesFreshMerge runs a 3-run campaign on every style
// and checks, after each run, that every reduce blob and the merged
// result equal a fresh decode-merge-encode of the documents that run
// published (the monolith's result, a fresh count of the corpus), and
// that the summary is the result's. It then hands one memo documents
// that differ and checks that it recomputes.
func TestMergeMemoMatchesFreshMerge(t *testing.T) {
	w := fastShape()
	for _, impl := range wantStyles {
		env := core.NewEnv(7)
		def, err := definition(w, corpusFor(env.Payload, w.CorpusBytes))
		if err != nil {
			t.Fatal(err)
		}
		var store *blob.Store
		bind := def.Bind
		def.Bind = func(b flow.Binding) (*flow.Stages, error) {
			store = b.Blob
			return bind(b)
		}
		dep, err := flow.Deploy(env, def, impl)
		if err != nil {
			t.Fatalf("deploy %s: %v", impl, err)
		}
		low, _ := flow.LowererFor(impl)
		mono := low.Class() == flow.Mono
		// A process goroutine must not call t.Fatal: it reports the
		// first mismatch through fail.
		var fail error
		env.K.Spawn("test", func(p *sim.Proc) {
			defer env.Stop()
			fail = checkRuns(p, w, store, dep, mono)
		})
		env.K.Run()
		if fail != nil {
			t.Fatalf("%s: %v", impl, fail)
		}
	}

	// Documents that differ recompute; equal copies and aliases reuse.
	docs := [][]byte{[]byte(`{"a":1,"b":2}`), []byte(`{"b":3}`)}
	var mm mergeMemo
	out, summary, err := mm.merge(docs)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `{"a":1,"b":5}` || string(summary) != `{"distinct":2,"top":"b","words":6}` {
		t.Fatalf("merge = %s, %s", out, summary)
	}
	copies := [][]byte{bytes.Clone(docs[0]), bytes.Clone(docs[1])}
	if again, _, _ := mm.merge(copies); &again[0] != &out[0] {
		t.Error("equal documents were merged again")
	}
	differ := [][]byte{docs[0], []byte(`{"b":4}`)}
	if got, summary, _ := mm.merge(differ); string(got) != `{"a":1,"b":6}` || string(summary) != `{"distinct":2,"top":"b","words":7}` {
		t.Errorf("documents that differ: merge = %s, %s", got, summary)
	}
	if got, _, _ := mm.merge(docs[:1]); string(got) != `{"a":1,"b":2}` {
		t.Errorf("fewer documents: merge = %s", got)
	}
	if _, _, err := mm.merge([][]byte{[]byte(`{`)}); err == nil {
		t.Error("a malformed document merged")
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

// TestKeysMatchSprintf checks the blob keys against their fmt.Sprintf
// forms at 0, at the edge of each pad width and past it.
func TestKeysMatchSprintf(t *testing.T) {
	for _, run := range []int64{0, 999999, 1000000} {
		for _, i := range []int{0, 99, 100} {
			for _, c := range [][2]string{
				{chunkKey(run, i), fmt.Sprintf("tmp/mr%06d/chunk-%02d", run, i)},
				{partKey(run, i, 99-i), fmt.Sprintf("tmp/mr%06d/part-%02d-%02d", run, i, 99-i)},
				{partKey(run, 100, i), fmt.Sprintf("tmp/mr%06d/part-%02d-%02d", run, 100, i)},
				{reduceKey(run, i), fmt.Sprintf("tmp/mr%06d/reduce-%02d", run, i)},
			} {
				if c[0] != c[1] {
					t.Errorf("key %q, want %q", c[0], c[1])
				}
			}
		}
	}
}
