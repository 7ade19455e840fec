package videoproc

import (
	"encoding/json"
	"fmt"
	"time"

	"statebench/internal/flow"
	"statebench/internal/payload"
	"statebench/internal/workloads/mlpipe"
)

// gcpSpeed scales the AWS-calibrated per-frame detection cost to a
// gen-1 Cloud Functions 2 GB instance (2.4 GHz fractional vCPU).
const gcpSpeed = 0.85

// Rough payload sizes on the step edges (bytes) for the static payload
// lint. Chunk *video* bytes always travel by blob key — only the small
// JSON control messages cross orchestration edges, which is the design
// the paper's payload limits force.
const (
	estEntry    = 24 // {"run","index"} entry message
	estChunkMsg = 96 // {"run","key","index"} chunk pointer
)

// estSplitOut is the split envelope carrying one chunk pointer per
// worker.
func estSplitOut(n int) int { return 64 + n*estChunkMsg }

// definition builds the provider-neutral IR for the video-processing
// workflow: Fig 5's split → parallel face-detection → merge shape in
// the Mono, Machine, and DurableOrch classes.
func definition(w *Workflow) (*flow.Definition, error) {
	n := w.Workers

	// The monolith's execution estimate gates it against provider
	// ceilings: ~606 s at the default spec fits Lambda (900 s) and a
	// premium Azure plan (1800 s at Azure speed), but not gen-1 Cloud
	// Functions (540 s at GCP speed) — which is why, like Table II's
	// video column, GCP offers only the orchestrated style.
	estMono := (w.Spec.splitCost(1) + w.Spec.DetectTotal() + w.Spec.mergeCost(1)).Seconds()

	mono := &flow.Graph{
		Class: flow.Mono,
		Start: "Mono",
		Nodes: []*flow.Node{{
			Name: "Mono", Kind: flow.KindTask,
			Fn: "video-mono", Stage: "mono",
			MemMB: awsVideoMemoryMB, ConsumedMemMB: memMono, CodeSizeMB: 32,
			EstSeconds: estMono,
		}},
		FuncCount:            1,
		CodeSizeMB:           70.8,
		CodeSizeMBByProvider: map[string]float64{"Azure": 204},
	}

	machine := &flow.Graph{
		Class: flow.Machine,
		Start: "SplitVideo",
		Nodes: []*flow.Node{
			{
				Name: "SplitVideo", Kind: flow.KindTask, Next: "FaceDetect",
				Fn: "video-split", Stage: "split",
				MemMB: awsVideoMemoryMB, ConsumedMemMB: memSplit, CodeSizeMB: 28,
				InEst: estEntry, OutEst: estSplitOut(n),
			},
			{
				Name: "FaceDetect", Kind: flow.KindMap, Next: "MergeVideo",
				ItemsField: "chunks", ResultField: "results",
				MaxConcurrency: w.MapConcurrency,
				Join:           flow.JoinEnvelope,
				IterName:       "DetectChunk",
				Iter: &flow.Node{
					Name: "DetectChunk", Kind: flow.KindTask,
					Fn: "video-detect", Stage: "detect",
					MemMB: awsVideoMemoryMB, ConsumedMemMB: memDetect, CodeSizeMB: 34,
					InEst: estChunkMsg, OutEst: estChunkMsg,
				},
				InEst: estSplitOut(n), OutEst: estSplitOut(n),
			},
			{
				Name: "MergeVideo", Kind: flow.KindTask,
				Fn: "video-merge", Stage: "merge",
				MemMB: awsVideoMemoryMB, ConsumedMemMB: memMerge, CodeSizeMB: 28,
				InEst: estSplitOut(n), OutEst: estEntry,
			},
		},
		MachineName:           fmt.Sprintf("video-%dw", n),
		MachineNameByProvider: map[string]string{"GCP": "video-processing"},
		Comment:               "Video processing with Map-state dynamic parallelism (paper Fig 5)",
		FuncCount:             3,
		CodeSizeMB:            214.8,
	}

	dorch := &flow.Graph{
		Class: flow.DurableOrch,
		Start: "Split",
		Nodes: []*flow.Node{
			{
				Name: "Split", Kind: flow.KindTask, Next: "Detect",
				Fn: "video-split", Stage: "dorch-split", ConsumedMemMB: memSplit,
				InEst: estEntry, OutEst: estChunkMsg,
			},
			{
				// Dynamic fan-out: the paper's "single line of code". The
				// fan derives the chunk items from the orchestration
				// input; workers read their chunks from blob storage, so
				// the joined outputs are discarded.
				Name: "Detect", Kind: flow.KindMap, Next: "Merge",
				Input: flow.InputEntry,
				Fan:   "chunks", Join: flow.JoinDiscard,
				Iter: &flow.Node{
					Name: "DetectOne", Kind: flow.KindTask,
					Fn: "video-detect", Stage: "dorch-detect", ConsumedMemMB: memDetect,
					InEst: estChunkMsg, OutEst: estChunkMsg,
				},
				InEst: estEntry,
			},
			{
				Name: "Merge", Kind: flow.KindTask,
				Input: flow.InputEntry,
				Fn:    "video-merge", Stage: "dorch-merge", ConsumedMemMB: memMerge,
				InEst: estEntry, OutEst: estEntry,
			},
		},
		MachineName:       fmt.Sprintf("video-dorch-%dw", n),
		OrchConsumedMemMB: mlpipe.MemOrch,
		FuncCount:         3,
		CodeSizeMB:        219,
	}

	graphs := map[flow.Class]*flow.Graph{
		flow.Mono:        mono,
		flow.Machine:     machine,
		flow.DurableOrch: dorch,
	}
	for _, g := range graphs {
		g.Preloads = []flow.Preload{
			{Key: videoKey, Data: payload.Zeros(w.Spec.TotalBytes)},
			{Key: modelKey, Data: payload.Zeros(w.Spec.ModelBytes)},
		}
	}

	def := &flow.Definition{
		Name:      w.Name(),
		ErrPrefix: "videoproc",
		Graphs:    graphs,
		Bind:      bindStages(w),
		Entry: func(_ flow.Class, run int64) []byte {
			return marshalChunk(chunkMsg{Run: run})
		},
		EntryMap: func(run int64) map[string]any {
			return map[string]any{"run": float64(run)}
		},
		Finish: func(_ []byte) (map[string]any, error) {
			return map[string]any{"frames": float64(w.Spec.Frames)}, nil
		},
		FinishScratchKey: finishScratchKey,
		Speeds: map[string]float64{
			"AWS":   1,
			"Azure": mlpipe.AzureSpeed,
			"GCP":   gcpSpeed,
		},
	}
	if err := flow.Validate(def); err != nil {
		return nil, err
	}
	return def, nil
}

// bindStages builds the per-deployment stage closures: the exact
// pre-IR handler bodies, parameterized only by the binding's blob
// store and provider speed. AWS runs the calibrated costs at full
// speed; GCP bakes its speed into the cost functions; the Azure
// durable activities divide the AWS-speed cost after the fact (the
// pre-IR rounding, which scaling inside would change).
func bindStages(w *Workflow) func(b flow.Binding) (*flow.Stages, error) {
	return func(b flow.Binding) (*flow.Stages, error) {
		env := b.Env
		store := b.Blob
		n := w.Workers
		sp := 1.0
		if b.Provider == "GCP" {
			sp = gcpSpeed
		}
		azSpeed := mlpipe.AzureSpeed
		scale := func(d time.Duration) time.Duration {
			return time.Duration(float64(d) / azSpeed)
		}

		tasks := map[string]flow.StageFn{
			"mono": func(a flow.Act, _ []byte) ([]byte, error) {
				p := a.Proc()
				load := env.Stage(p, "video/load")
				if _, err := store.Get(p, videoKey); err != nil {
					return nil, err
				}
				if _, err := store.Get(p, modelKey); err != nil {
					return nil, err
				}
				load.End(p.Now())
				if b.Provider == "Azure" {
					// One combined busy phase: splitting the scaled sum
					// would change its rounding, so the stage span
					// covers all three.
					process := env.Stage(p, "video/process")
					a.Busy(scale(w.Spec.splitCost(1) + w.Spec.DetectTotal() + w.Spec.mergeCost(1)))
					store.PutShared(p, "videos/output", payload.Zeros(w.Spec.TotalBytes))
					process.End(p.Now())
					return []byte(fmt.Sprintf(`{"frames":%d}`, w.Spec.Frames)), nil
				}
				split := env.Stage(p, "video/split")
				a.Busy(w.Spec.splitCost(1))
				split.End(p.Now())
				detect := env.Stage(p, "video/detect")
				a.Busy(w.Spec.DetectTotal())
				detect.End(p.Now())
				merge := env.Stage(p, "video/merge")
				a.Busy(w.Spec.mergeCost(1))
				store.PutShared(p, "videos/output", payload.Zeros(w.Spec.TotalBytes))
				merge.End(p.Now())
				return []byte(fmt.Sprintf(`{"frames":%d}`, w.Spec.Frames)), nil
			},
			"split": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseChunk(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				if _, err := store.Get(p, videoKey); err != nil {
					return nil, err
				}
				a.Busy(w.Spec.splitCost(sp))
				chunks := make([]chunkMsg, n)
				for i := 0; i < n; i++ {
					key := chunkKey(m.Run, i)
					store.PutShared(p, key, payload.Zeros(w.Spec.chunkBytes(i, n)))
					chunks[i] = chunkMsg{Run: m.Run, Key: key, Index: i}
				}
				return json.Marshal(map[string]any{"run": m.Run, "chunks": chunks})
			},
			"detect": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseChunk(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				if _, err := store.Get(p, m.Key); err != nil {
					return nil, err
				}
				if _, err := store.Get(p, modelKey); err != nil {
					return nil, err
				}
				a.Busy(w.Spec.detectCost(m.Index, n, sp))
				key := resultKey(m.Run, m.Index)
				store.PutShared(p, key, payload.Zeros(w.Spec.chunkBytes(m.Index, n)))
				return marshalChunk(chunkMsg{Run: m.Run, Key: key, Index: m.Index}), nil
			},
			"merge": func(a flow.Act, input []byte) ([]byte, error) {
				var in struct {
					Results []chunkMsg `json:"results"`
				}
				if err := json.Unmarshal(input, &in); err != nil {
					return nil, err
				}
				p := a.Proc()
				for _, c := range in.Results {
					if _, err := store.Get(p, c.Key); err != nil {
						return nil, err
					}
				}
				a.Busy(w.Spec.mergeCost(sp))
				store.PutShared(p, "videos/output", payload.Zeros(w.Spec.TotalBytes))
				if b.Provider == "GCP" {
					return []byte(`{"merged":true}`), nil
				}
				return []byte(fmt.Sprintf(`{"chunks":%d}`, len(in.Results))), nil
			},
			"dorch-split": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseChunk(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				if _, err := store.Get(p, videoKey); err != nil {
					return nil, err
				}
				a.Busy(scale(w.Spec.splitCost(1)))
				for i := 0; i < n; i++ {
					store.PutShared(p, chunkKey(m.Run, i), payload.Zeros(w.Spec.chunkBytes(i, n)))
				}
				return marshalChunk(chunkMsg{Run: m.Run, Index: n}), nil
			},
			"dorch-detect": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseChunk(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				if _, err := store.Get(p, chunkKey(m.Run, m.Index)); err != nil {
					return nil, err
				}
				if _, err := store.Get(p, modelKey); err != nil {
					return nil, err
				}
				a.Busy(scale(w.Spec.detectCost(m.Index, n, 1)))
				store.PutShared(p, resultKey(m.Run, m.Index), payload.Zeros(w.Spec.chunkBytes(m.Index, n)))
				// Record this worker's finish time relative to the run
				// start (Table III's per-worker metric).
				if rs := flow.RunStateOf(a); rs != nil {
					rs.RecordFinish(p.Now())
				}
				return marshalChunk(chunkMsg{Run: m.Run, Index: m.Index}), nil
			},
			"dorch-merge": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseChunk(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				for i := 0; i < n; i++ {
					if _, err := store.Get(p, resultKey(m.Run, i)); err != nil {
						return nil, err
					}
				}
				a.Busy(scale(w.Spec.mergeCost(1)))
				store.PutShared(p, "videos/output", payload.Zeros(w.Spec.TotalBytes))
				return []byte(fmt.Sprintf(`{"chunks":%d}`, n)), nil
			},
		}

		fans := map[string]flow.FanFn{
			"chunks": func(input []byte) ([][]byte, error) {
				m, err := parseChunk(input)
				if err != nil {
					return nil, err
				}
				items := make([][]byte, n)
				for i := range items {
					items[i] = marshalChunk(chunkMsg{Run: m.Run, Index: i})
				}
				return items, nil
			},
		}

		return &flow.Stages{Tasks: tasks, Fans: fans}, nil
	}
}

// FlowDef exposes the workload's IR for static consumers (the graph
// command, lint, lowering programs).
func (w *Workflow) FlowDef() (*flow.Definition, error) {
	def, err := definition(w)
	if err != nil {
		return nil, err
	}
	flow.OverrideMemMB(def, w.MemMB)
	return def, nil
}
