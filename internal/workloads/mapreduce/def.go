package mapreduce

import (
	"encoding/json"
	"fmt"
	"time"

	"statebench/internal/flow"
	"statebench/internal/payload"
	"statebench/internal/workloads/mlpipe"
)

// gcpSpeed scales the AWS-calibrated compute costs to a gen-1 Cloud
// Functions instance.
const gcpSpeed = 0.85

// Modeled compute throughputs at AWS speed (bytes/sec of text or
// serialized counts processed).
const (
	splitBW = 120e6 // whitespace-aligned chunking
	countBW = 18e6  // tokenize + tally
	mergeBW = 30e6  // merge serialized count maps
)

// Rough payload sizes on the workflow edges (bytes) for the static
// payload lint: control messages and the fan-out envelopes that carry
// one pointer per mapper or partition.
const (
	estEntry   = 16 // {"run"}
	estItem    = 80 // {"run","key","part"} pointer
	estSummary = 64 // {"distinct","top","words"}
)

func estFan(width int) int { return 32 + width*estItem }

// Consumed memory models (MB).
const (
	memMono    = 768
	memSplit   = 512
	memMap     = 640
	memShuffle = 256
	memReduce  = 640
	memMerge   = 512
)

// definition builds the provider-neutral IR for the MapReduce
// text-processing workflow: splitter → N mappers → shuffle → R
// reducers → merge, in the Mono, Machine, Queue, and DurableOrch
// classes. corpus may be nil for static inspection (graph rendering,
// lint, lowering programs); binding stages requires the corpus.
func definition(w *Workflow, corpus *corpus) (*flow.Definition, error) {
	m, r := w.Mappers, w.Reducers
	estMono := float64(w.CorpusBytes) / countBW

	mono := &flow.Graph{
		Class: flow.Mono,
		Start: "Mono",
		Nodes: []*flow.Node{{
			Name: "Mono", Kind: flow.KindTask,
			Fn: "mr-mono", Stage: "mono",
			ConsumedMemMB: memMono, CodeSizeMB: 12.4,
			EstSeconds: estMono,
			InEst:      estEntry, OutEst: estSummary,
		}},
		FuncCount:  1,
		CodeSizeMB: 12.4,
	}

	// pipeline is the orchestrated shape shared by the Machine and
	// DurableOrch classes: both fan out over the splitter's chunk list
	// and the shuffle's partition list, differing only in who drives
	// the graph (a state machine vs. an orchestrator function).
	pipeline := func(class flow.Class) *flow.Graph {
		return &flow.Graph{
			Class: class,
			Start: "Split",
			Nodes: []*flow.Node{
				{
					Name: "Split", Kind: flow.KindTask, Next: "MapWords",
					Fn: "mr-split", Stage: "split",
					ConsumedMemMB: memSplit, CodeSizeMB: 9.8,
					InEst: estEntry, OutEst: estFan(m),
				},
				{
					Name: "MapWords", Kind: flow.KindMap, Next: "Shuffle",
					ItemsField: "chunks", ResultField: "results",
					Join:     flow.JoinEnvelope,
					IterName: "MapChunk",
					Iter: &flow.Node{
						Name: "MapChunk", Kind: flow.KindTask,
						Fn: "mr-map", Stage: "map",
						ConsumedMemMB: memMap, CodeSizeMB: 11.6,
						InEst: estItem, OutEst: estItem,
					},
					InEst: estFan(m), OutEst: estFan(m),
				},
				{
					Name: "Shuffle", Kind: flow.KindTask, Next: "Reduce",
					Fn: "mr-shuffle", Stage: "shuffle",
					ConsumedMemMB: memShuffle, CodeSizeMB: 8.2,
					InEst: estFan(m), OutEst: estFan(r),
				},
				{
					Name: "Reduce", Kind: flow.KindMap, Next: "Merge",
					ItemsField: "partitions", ResultField: "results",
					Join:     flow.JoinEnvelope,
					IterName: "ReducePart",
					Iter: &flow.Node{
						Name: "ReducePart", Kind: flow.KindTask,
						Fn: "mr-reduce", Stage: "reduce",
						ConsumedMemMB: memReduce, CodeSizeMB: 11.6,
						InEst: estItem, OutEst: estItem,
					},
					InEst: estFan(r), OutEst: estFan(r),
				},
				{
					Name: "Merge", Kind: flow.KindTask,
					Fn: "mr-merge", Stage: "merge",
					ConsumedMemMB: memMerge, CodeSizeMB: 9.8,
					InEst: estFan(r), OutEst: estSummary,
				},
			},
			FuncCount:  5,
			CodeSizeMB: 51.0,
		}
	}

	machine := pipeline(flow.Machine)
	machine.MachineName = "mapreduce"
	machine.Comment = "MapReduce text processing (SeBS-Flow): split, map fan-out, shuffle, reduce fan-out, merge"
	machine.RetryAttempts = 5

	dorch := pipeline(flow.DurableOrch)
	dorch.MachineName = "mr-dorch"
	dorch.Variants = []string{"", "n"}
	dorch.OrchConsumedMemMB = mlpipe.MemOrch
	dorch.FuncCount = 6
	dorch.CodeSizeMB = 54.5

	// Queue chains cannot fan out, so the Az-Queue style is the honest
	// linearization: each stage drains its whole tier serially before
	// handing the run to the next queue.
	queue := &flow.Graph{
		Class: flow.Queue,
		Start: "Split",
		Nodes: []*flow.Node{
			{
				Name: "Split", Kind: flow.KindTask, Next: "MapAll",
				Fn: "mr-split", Stage: "split",
				ConsumedMemMB: memSplit,
				InEst:         estEntry, OutEst: estFan(m),
			},
			{
				Name: "MapAll", Kind: flow.KindTask, Next: "ReduceAll",
				Fn: "mr-map-all", Stage: "q-map", QueueName: "mr-map-q",
				ConsumedMemMB: memMap,
				InEst:         estFan(m), OutEst: estEntry,
			},
			{
				Name: "ReduceAll", Kind: flow.KindTask, Next: "Merge",
				Fn: "mr-reduce-all", Stage: "q-reduce", QueueName: "mr-reduce-q",
				ConsumedMemMB: memReduce,
				InEst:         estEntry, OutEst: estEntry,
			},
			{
				Name: "Merge", Kind: flow.KindTask,
				Fn: "mr-merge", Stage: "merge", QueueName: "mr-merge-q",
				ConsumedMemMB: memMerge,
				InEst:         estEntry, OutEst: estSummary,
			},
		},
		FuncCount:  4,
		CodeSizeMB: 44.8,
	}

	graphs := map[flow.Class]*flow.Graph{
		flow.Mono:        mono,
		flow.Machine:     machine,
		flow.Queue:       queue,
		flow.DurableOrch: dorch,
	}
	if corpus != nil {
		for _, g := range graphs {
			g.Preloads = []flow.Preload{{Key: corpusKey, Data: corpus.text}}
		}
	}

	def := &flow.Definition{
		Name:      "mapreduce",
		ErrPrefix: "mapreduce",
		Graphs:    graphs,
		Bind:      bindStages(w, corpus),
		Entry: func(_ flow.Class, run int64) []byte {
			return marshalMR(mrMsg{Run: run})
		},
		EntryMap: func(run int64) map[string]any {
			return map[string]any{"run": float64(run)}
		},
		Speeds: map[string]float64{
			"AWS":       1,
			"Azure":     mlpipe.AzureSpeed,
			"Netherite": mlpipe.AzureSpeed,
			"GCP":       gcpSpeed,
		},
	}
	if err := flow.Validate(def); err != nil {
		return nil, err
	}
	return def, nil
}

// bindStages builds the stage closures. Every style shares the same
// bodies: compute costs are the modeled throughputs scaled by the
// binding provider's speed, and the word counting is real — the
// payloads each style routes are genuine count documents, so the
// cross-style output equality is a behavioral check, not a formality.
func bindStages(w *Workflow, corpus *corpus) func(b flow.Binding) (*flow.Stages, error) {
	return func(b flow.Binding) (*flow.Stages, error) {
		if corpus == nil {
			return nil, fmt.Errorf("mapreduce: binding requires a corpus")
		}
		store := b.Blob
		eng := b.Env.Payload
		m, r := w.Mappers, w.Reducers
		digests := corpus.digests(m)
		// One memo per reducer and one for the final merge: every run
		// of the deployment merges the same published documents.
		reduceMemos := make([]mergeMemo, r)
		var finalMemo mergeMemo
		speed := 1.0
		switch b.Provider {
		case "Azure", "Netherite":
			speed = mlpipe.AzureSpeed
		case "GCP":
			speed = gcpSpeed
		}
		busy := func(a flow.Act, nbytes int, bw float64) {
			a.Busy(time.Duration(float64(nbytes) / bw / speed * float64(time.Second)))
		}

		// partitionBufs tokenizes one chunk and serializes its r
		// partitioned count documents, memoized by chunk content: the
		// tokenize-and-tally pass dominates the workload's host-side
		// compute, and every style, memory tier, and repetition maps
		// the same chunk bytes, so a sweep pays for each (chunk, r)
		// exactly once. Cached bytes are identical to a fresh pass, so
		// simulated output never depends on cache state.
		partitionBufs := func(part int, data []byte) ([][]byte, error) {
			key := payload.Key{
				Workload: "mapreduce",
				Stage:    "map/partition",
				Input:    digests.digest(part, data),
				Params:   payload.DigestInts(int64(r)),
			}
			bufs, _, err := payload.Get(eng, key, func() ([][]byte, int, error) {
				parts := partitionCounts(countWords(data), r)
				out := make([][]byte, len(parts))
				size := 0
				for j, pc := range parts {
					buf, err := json.Marshal(pc)
					if err != nil {
						return nil, 0, err
					}
					out[j] = buf
					size += len(buf)
				}
				return out, size, nil
			})
			return bufs, err
		}

		// mapChunk counts one chunk and writes its r partition files —
		// the shuffle's storage-level regrouping.
		mapChunk := func(a flow.Act, run int64, part int, data []byte) error {
			busy(a, len(data), countBW)
			bufs, err := partitionBufs(part, data)
			if err != nil {
				return err
			}
			for j, buf := range bufs {
				store.PutShared(a.Proc(), partKey(run, part, j), buf)
			}
			return nil
		}

		// reducePart merges partition j across all m mappers and writes
		// the partition result.
		reducePart := func(a flow.Act, run int64, j int) error {
			p := a.Proc()
			docs := make([][]byte, m)
			nbytes := 0
			for i := range docs {
				buf, err := store.Get(p, partKey(run, i, j))
				if err != nil {
					return err
				}
				docs[i] = buf
				nbytes += len(buf)
			}
			busy(a, nbytes, mergeBW)
			out, _, err := reduceMemos[j].merge(docs)
			if err != nil {
				return err
			}
			store.PutShared(p, reduceKey(run, j), out)
			return nil
		}

		splitBody := func(a flow.Act, input []byte) (mrMsg, []mrMsg, error) {
			msg, err := parseMR(input)
			if err != nil {
				return mrMsg{}, nil, err
			}
			p := a.Proc()
			data, err := store.Get(p, corpusKey)
			if err != nil {
				return mrMsg{}, nil, err
			}
			busy(a, len(data), splitBW)
			items := make([]mrMsg, m)
			for i, chunk := range wordChunks(data, m) {
				key := chunkKey(msg.Run, i)
				store.PutShared(p, key, chunk)
				items[i] = mrMsg{Run: msg.Run, Key: key, Part: i}
			}
			return msg, items, nil
		}

		tasks := map[string]flow.StageFn{
			"mono": func(a flow.Act, _ []byte) ([]byte, error) {
				p := a.Proc()
				data, err := store.Get(p, corpusKey)
				if err != nil {
					return nil, err
				}
				busy(a, len(data), countBW)
				res, err := countCorpus(eng, digests.digest(m, data), data)
				if err != nil {
					return nil, err
				}
				store.PutShared(p, resultKey, res.Counts)
				return res.Summary, nil
			},
			"split": func(a flow.Act, input []byte) ([]byte, error) {
				msg, items, err := splitBody(a, input)
				if err != nil {
					return nil, err
				}
				return json.Marshal(map[string]any{"run": msg.Run, "chunks": items})
			},
			"map": func(a flow.Act, input []byte) ([]byte, error) {
				msg, err := parseMR(input)
				if err != nil {
					return nil, err
				}
				data, err := store.Get(a.Proc(), msg.Key)
				if err != nil {
					return nil, err
				}
				if err := mapChunk(a, msg.Run, msg.Part, data); err != nil {
					return nil, err
				}
				return marshalMR(mrMsg{Run: msg.Run, Part: msg.Part}), nil
			},
			"shuffle": func(a flow.Act, input []byte) ([]byte, error) {
				var in struct {
					Results []mrMsg `json:"results"`
				}
				if err := json.Unmarshal(input, &in); err != nil {
					return nil, err
				}
				if len(in.Results) == 0 {
					return nil, fmt.Errorf("mapreduce: shuffle got no map results")
				}
				run := in.Results[0].Run
				// The byte-level regrouping already happened in the
				// mappers' partitioned writes; this step is the control
				// hand-off that builds the reducer work list.
				busy(a, m*r*estItem, mergeBW)
				parts := make([]mrMsg, r)
				for j := range parts {
					parts[j] = mrMsg{Run: run, Part: j}
				}
				return json.Marshal(map[string]any{"partitions": parts, "run": run})
			},
			"reduce": func(a flow.Act, input []byte) ([]byte, error) {
				msg, err := parseMR(input)
				if err != nil {
					return nil, err
				}
				if err := reducePart(a, msg.Run, msg.Part); err != nil {
					return nil, err
				}
				return marshalMR(mrMsg{Run: msg.Run, Part: msg.Part}), nil
			},
			"merge": func(a flow.Act, input []byte) ([]byte, error) {
				var in struct {
					Run     int64   `json:"run"`
					Results []mrMsg `json:"results"`
				}
				if err := json.Unmarshal(input, &in); err != nil {
					return nil, err
				}
				run := in.Run
				if run == 0 && len(in.Results) > 0 {
					run = in.Results[0].Run
				}
				p := a.Proc()
				docs := make([][]byte, r)
				nbytes := 0
				for j := range docs {
					buf, err := store.Get(p, reduceKey(run, j))
					if err != nil {
						return nil, err
					}
					docs[j] = buf
					nbytes += len(buf)
				}
				busy(a, nbytes, mergeBW)
				out, summary, err := finalMemo.merge(docs)
				if err != nil {
					return nil, err
				}
				store.PutShared(p, resultKey, out)
				return summary, nil
			},
			"q-map": func(a flow.Act, input []byte) ([]byte, error) {
				var in struct {
					Run    int64   `json:"run"`
					Chunks []mrMsg `json:"chunks"`
				}
				if err := json.Unmarshal(input, &in); err != nil {
					return nil, err
				}
				p := a.Proc()
				for _, c := range in.Chunks {
					data, err := store.Get(p, c.Key)
					if err != nil {
						return nil, err
					}
					if err := mapChunk(a, c.Run, c.Part, data); err != nil {
						return nil, err
					}
				}
				return marshalMR(mrMsg{Run: in.Run}), nil
			},
			"q-reduce": func(a flow.Act, input []byte) ([]byte, error) {
				msg, err := parseMR(input)
				if err != nil {
					return nil, err
				}
				for j := 0; j < r; j++ {
					if err := reducePart(a, msg.Run, j); err != nil {
						return nil, err
					}
				}
				return marshalMR(mrMsg{Run: msg.Run}), nil
			},
		}

		return &flow.Stages{Tasks: tasks}, nil
	}
}
