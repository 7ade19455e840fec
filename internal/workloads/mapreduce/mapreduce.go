// Package mapreduce implements the SeBS-Flow text-processing workload:
// a splitter fans a text corpus out to N mappers, a shuffle regroups
// the mappers' partitioned word counts, R reducers merge their
// partitions, and a final merge publishes the corpus-wide counts.
//
// The workload exists to prove the flow IR's substitution argument: it
// is defined *only* as a provider-neutral graph (def.go) and runs on
// every registered style across all three providers purely through the
// registered lowerers — this package imports no provider code, not
// even the lowerer aggregator (binaries link lowerers via their other
// workloads; the package tests import the aggregator from the test
// file). Its data-dependent fan-out stresses the payload cache, the
// orchestration payload limits, and scheduling delay in ways the
// paper's two workloads don't: every payload crossing an edge is a
// real JSON document derived from real word counts over a
// deterministic corpus, so a lowerer that corrupted, reordered, or
// truncated a payload changes the final answer.
package mapreduce

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"slices"
	"sync"

	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/payload"
	"statebench/internal/workloads"
)

// Workflow is the MapReduce text-processing workload.
type Workflow struct {
	// Mappers is the fan-out width N (one chunk per mapper).
	Mappers int
	// Reducers is the shuffle partition count R.
	Reducers int
	// CorpusBytes is the input text size.
	CorpusBytes int
	// MemMB, when > 0, overrides the provisioned memory tier of every
	// platform task (the optimizer's memory knob); 0 keeps each
	// lowering provider's default.
	MemMB int
}

// New returns the workload at its default shape: 8 mappers, 4
// reducers, a 4 MB corpus.
func New() *Workflow { return &Workflow{Mappers: 8, Reducers: 4, CorpusBytes: 4e6} }

// Name implements core.Workflow.
func (w *Workflow) Name() string { return "mapreduce" }

// Impls implements core.Workflow. MapReduce is not one of the paper's
// figures, so it declares no paper styles: every style it runs on is
// discovered from the lowerer registry via ExtraImpls.
func (w *Workflow) Impls() []core.Impl { return nil }

// ExtraImpls implements core.ExtendedWorkflow: every registered style
// the IR definition lowers to.
func (w *Workflow) ExtraImpls() []core.Impl {
	def, err := definition(w, nil)
	if err != nil {
		return nil
	}
	return flow.Extras(def, nil)
}

// Deploy implements core.Workflow by lowering the IR definition.
func (w *Workflow) Deploy(env *core.Env, impl core.Impl) (*core.Deployment, error) {
	if w.Mappers < 1 || w.Reducers < 1 {
		return nil, fmt.Errorf("mapreduce: mappers and reducers must be >= 1, got %d/%d", w.Mappers, w.Reducers)
	}
	if w.Mappers > flow.MaxFanOut {
		return nil, fmt.Errorf("mapreduce: %d mappers exceed the fan-out limit %d", w.Mappers, flow.MaxFanOut)
	}
	def, err := definition(w, corpusFor(env.Payload, w.CorpusBytes))
	if err != nil {
		return nil, err
	}
	flow.OverrideMemMB(def, w.MemMB)
	return flow.Deploy(env, def, impl)
}

// FlowDef exposes the workload's IR for static consumers (the graph
// command, lint, lowering programs).
func (w *Workflow) FlowDef() (*flow.Definition, error) { return definition(w, nil) }

// Blob keys.
const (
	corpusKey = "datasets/corpus.txt"
	resultKey = "results/wordcount"
)

func chunkKey(run int64, i int) string   { return mrKey(run, "/chunk-", i) }
func partKey(run int64, i, j int) string { return mrKey(run, "/part-", i, j) }
func reduceKey(run int64, j int) string  { return mrKey(run, "/reduce-", j) }

// mrKey is fmt.Sprintf("tmp/mr%06d%s%02d", run, name, idx[0]), with
// "-%02d" of each further index appended.
func mrKey(run int64, name string, idx ...int) string {
	var buf [64]byte
	b := workloads.AppendPadded(append(buf[:0], "tmp/mr"...), run, 6)
	b = append(b, name...)
	for k, i := range idx {
		if k > 0 {
			b = append(b, '-')
		}
		b = workloads.AppendPadded(b, int64(i), 2)
	}
	return string(b)
}

// mrMsg is the small JSON control message on the workflow edges; the
// corpus and count bytes travel by blob key.
type mrMsg struct {
	Run  int64  `json:"run"`
	Key  string `json:"key,omitempty"`
	Part int    `json:"part,omitempty"`
}

func marshalMR(m mrMsg) []byte { b, _ := json.Marshal(m); return b }

func parseMR(data []byte) (mrMsg, error) {
	var m mrMsg
	err := json.Unmarshal(data, &m)
	return m, err
}

// summary is the workflow's final answer. Field order matches the
// sorted-key order JSON maps marshal in, so the raw handler output and
// a parse-and-remarshal round trip (the state-machine runners) produce
// identical bytes on every style.
type summary struct {
	Distinct int    `json:"distinct"`
	Top      string `json:"top"`
	Words    int    `json:"words"`
}

// summarize reduces a full count map to the workflow output: total
// words, distinct words, and the most frequent word (ties broken
// lexicographically, so the answer is deterministic).
func summarize(counts map[string]int) summary {
	s := summary{Distinct: len(counts)}
	for w, c := range counts {
		s.Words += c
		if c > counts[s.Top] || (c == counts[s.Top] && (s.Top == "" || w < s.Top)) {
			s.Top = w
		}
	}
	return s
}

// vocab is the deterministic vocabulary the corpus draws from: a core
// of common English words plus derived tokens, large enough that the
// partitioned count documents carry real weight.
var vocab = buildVocab()

func buildVocab() []string {
	base := []string{
		"the", "of", "and", "to", "in", "a", "is", "that", "for", "it",
		"as", "was", "with", "be", "by", "on", "not", "he", "i", "this",
		"are", "or", "his", "from", "at", "which", "but", "have", "an", "had",
		"they", "you",
	}
	out := make([]string, 0, 256)
	out = append(out, base...)
	for i := 0; len(out) < 256; i++ {
		out = append(out, fmt.Sprintf("%s%02d", base[i%len(base)], i))
	}
	return out
}

// corpus is the memoized corpus: its text and, per mapper count, the
// digest table of the pieces the stages key their lookups by. The text
// is shared and immutable; tables are made under mu, and each hashes
// its pieces once however many deployments and sweep workers share it.
type corpus struct {
	text   []byte
	mu     sync.Mutex
	tables map[int]*pieceDigests
}

// digests returns the piece table for m mappers, making it on first use.
func (c *corpus) digests(m int) *pieceDigests {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.tables[m]
	if !ok {
		d = newPieceDigests(c.text, m)
		c.tables[m] = d
	}
	return d
}

// corpusFor is corpusText memoized through the Env's payload engine:
// one sweep generates each corpus size exactly once, however many
// campaigns deploy it, and so hashes each of its pieces once. With the
// cache off, every deployment generates, and hashes, its own.
func corpusFor(eng *payload.Engine, n int) *corpus {
	key := payload.Key{
		Workload: "mapreduce",
		Stage:    "corpus",
		Input:    payload.DigestInts(int64(n)),
	}
	c, _, _ := payload.Get(eng, key, func() (*corpus, int, error) {
		text := corpusText(n)
		return &corpus{text: text, tables: make(map[int]*pieceDigests)}, len(text), nil
	})
	return c
}

// corpusText generates n bytes of deterministic pseudo-text: an
// xorshift stream picks vocabulary words on a squared (Zipf-flavored)
// distribution. Same n, same bytes — the property every simulated
// measurement and the cross-style output equality rest on.
func corpusText(n int) []byte {
	var b bytes.Buffer
	b.Grow(n + 16)
	x := uint64(0x9E3779B97F4A7C15)
	for b.Len() < n {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x>>11) / (1 << 53)
		b.WriteString(vocab[int(u*u*float64(len(vocab)))])
		if (x>>20)%13 == 0 {
			b.WriteByte('\n')
		} else {
			b.WriteByte(' ')
		}
	}
	return b.Bytes()
}

// wordChunks splits the corpus into m whitespace-aligned chunks, so
// per-chunk counts sum exactly to the whole-corpus counts.
func wordChunks(corpus []byte, m int) [][]byte {
	chunks := make([][]byte, m)
	start := 0
	for i := 0; i < m; i++ {
		end := len(corpus)
		if i < m-1 {
			end = len(corpus) * (i + 1) / m
			for end < len(corpus) && corpus[end] != ' ' && corpus[end] != '\n' {
				end++
			}
		}
		if end < start {
			end = start
		}
		chunks[i] = corpus[start:end]
		start = end
	}
	return chunks
}

// pieceDigests memoizes the content digests of a corpus's pieces for
// one mapper count m: piece i < m is the i-th of the m chunks
// wordChunks hands the mappers, and piece m is the whole corpus the
// monolith counts. Map and monolith runs key their payload lookups by
// the SHA-256 of the bytes they were handed, which are the corpus's
// own immutable bytes in every deployment, so each piece is hashed at
// most once. Bytes that differ from the named piece are hashed afresh,
// so a run handed the wrong bytes misses the cache instead of hitting
// the piece's entry. Concurrent sweep workers share a table: each
// piece's hash runs under its own sync.Once.
type pieceDigests struct {
	pieces [][]byte
	sums   []payload.Digest
	once   []sync.Once
}

func newPieceDigests(corpus []byte, m int) *pieceDigests {
	pieces := append(wordChunks(corpus, m), corpus)
	return &pieceDigests{
		pieces: pieces,
		sums:   make([]payload.Digest, len(pieces)),
		once:   make([]sync.Once, len(pieces)),
	}
}

// digest returns payload.DigestBytes(data), hashing only the first time
// data equals piece i. bytes.Equal returns at once when data aliases
// the piece, as it does on the shared blob path.
func (d *pieceDigests) digest(i int, data []byte) payload.Digest {
	if i < 0 || i >= len(d.pieces) || !bytes.Equal(data, d.pieces[i]) {
		return payload.DigestBytes(data)
	}
	d.once[i].Do(func() { d.sums[i] = payload.DigestBytes(d.pieces[i]) })
	return d.sums[i]
}

// mergeMemo is one merge stage's last inputs and what it produced from
// them: the merged count document and its summary (the final merge
// returns the summary; a reducer publishes only the document). The
// inputs are count documents published with PutShared, immutable by
// contract, so a run of the same deployment hands the same slices
// again and bytes.Equal returns at once. The memo is host compute
// only: it is no payload-engine stage, makes no lookup and moves no
// payload statistic. One deployment's stages run on one kernel, one
// process at a time, so it needs no lock.
type mergeMemo struct {
	docs    [][]byte
	out     []byte
	summary []byte
}

// merge returns the count document of docs merged and its summary,
// recomputing only when docs differ from the last call's.
func (mm *mergeMemo) merge(docs [][]byte) (out, summary []byte, err error) {
	if mm.out != nil && slices.EqualFunc(docs, mm.docs, bytes.Equal) {
		return mm.out, mm.summary, nil
	}
	total := make(map[string]int)
	for _, buf := range docs {
		var counts map[string]int
		if err := json.Unmarshal(buf, &counts); err != nil {
			return nil, nil, err
		}
		mergeCounts(total, counts)
	}
	if out, err = json.Marshal(total); err != nil {
		return nil, nil, err
	}
	if summary, err = json.Marshal(summarize(total)); err != nil {
		return nil, nil, err
	}
	*mm = mergeMemo{docs: docs, out: out, summary: summary}
	return out, summary, nil
}

// corpusCount is the memoized whole-corpus result: the serialized
// count document the monolith publishes and the workflow's summary.
type corpusCount struct {
	Counts  []byte
	Summary []byte
}

// countCorpus tallies the whole corpus, memoized by content (sum is
// data's digest) through the deployment's payload engine — the
// monolith styles of every provider, tier, and repetition count the
// same bytes.
func countCorpus(eng *payload.Engine, sum payload.Digest, data []byte) (corpusCount, error) {
	key := payload.Key{
		Workload: "mapreduce",
		Stage:    "count",
		Input:    sum,
	}
	res, _, err := payload.Get(eng, key, func() (corpusCount, int, error) {
		counts := countWords(data)
		out, err := json.Marshal(counts)
		if err != nil {
			return corpusCount{}, 0, err
		}
		sum, err := json.Marshal(summarize(counts))
		if err != nil {
			return corpusCount{}, 0, err
		}
		return corpusCount{Counts: out, Summary: sum}, len(out) + len(sum), nil
	})
	return res, err
}

// countWords tallies whitespace-separated words.
func countWords(text []byte) map[string]int {
	counts := make(map[string]int)
	for _, w := range bytes.Fields(text) {
		counts[string(w)]++
	}
	return counts
}

// partitionOf assigns a word to one of r shuffle partitions.
func partitionOf(word string, r int) int {
	h := fnv.New32a()
	h.Write([]byte(word))
	return int(h.Sum32() % uint32(r))
}

// partitionCounts splits a count map into r per-partition maps.
func partitionCounts(counts map[string]int, r int) []map[string]int {
	parts := make([]map[string]int, r)
	for j := range parts {
		parts[j] = make(map[string]int)
	}
	for w, c := range counts {
		parts[partitionOf(w, r)][w] = c
	}
	return parts
}

// mergeCounts folds src into dst.
func mergeCounts(dst, src map[string]int) {
	for w, c := range src {
		dst[w] += c
	}
}
