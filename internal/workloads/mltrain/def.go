package mltrain

import (
	"encoding/json"
	"fmt"

	"statebench/internal/flow"
	"statebench/internal/payload"
	"statebench/internal/workloads/mlpipe"
)

// gcpSpeed scales the calibrated AWS-speed compute costs to a gen-1
// Cloud Functions 2 GB instance (2.4 GHz fractional vCPU).
const gcpSpeed = 0.85

// Rough payload sizes on the step edges (bytes) for the static payload
// lint: the small JSON control messages the styles actually exchange.
// Everything larger travels by blob key, which is the design the paper's
// payload limits force.
const (
	estMsg      = 96  // {"run","key"} control message
	estAlgoMsg  = 128 // {"run","key","algo"} fan-out item
	estTrainOut = 192 // {"run","algo","mse","model"} result message
	estFanOut   = 512 // envelope carrying one item per algorithm
	estResults  = 640 // joined results array / envelope
)

// definition builds the provider-neutral IR for the ML training
// workflow. arts may be nil for static inspection (graph rendering,
// lint, lowering programs); binding stages requires real artifacts.
func definition(size mlpipe.DatasetSize, arts *mlpipe.Artifacts) (*flow.Definition, error) {
	sfx := "-" + string(size)
	perFnCode := 271.2 / 4

	mono := &flow.Graph{
		Class: flow.Mono,
		Start: "Mono",
		Nodes: []*flow.Node{{
			Name: "Mono", Kind: flow.KindTask,
			Fn: "ml-train-mono" + sfx, Stage: "mono",
			ConsumedMemMB: mlpipe.MemMonolith, CodeSizeMB: 63.1,
			OutEst: estTrainOut, EstSeconds: 30,
		}},
		FuncCount:            1,
		CodeSizeMB:           63.1,
		CodeSizeMBByProvider: map[string]float64{"Azure": 304},
	}

	machine := &flow.Graph{
		Class: flow.Machine,
		Start: "Prep",
		Nodes: []*flow.Node{
			{
				Name: "Prep", Kind: flow.KindTask, Next: "DimRed",
				Fn: "ml-prep" + sfx, Stage: "prep",
				ConsumedMemMB: mlpipe.MemPrep, CodeSizeMB: perFnCode,
				InEst: estMsg, OutEst: estMsg, EstSeconds: 10,
			},
			{
				Name: "DimRed", Kind: flow.KindTask, Next: "TrainModels",
				Fn: "ml-dimred" + sfx, Stage: "dimred-machine",
				ConsumedMemMB: mlpipe.MemPrep, CodeSizeMB: perFnCode,
				InEst: estMsg, OutEst: estFanOut, EstSeconds: 10,
			},
			{
				Name: "TrainModels", Kind: flow.KindMap, Next: "Select",
				Fan: "algos", ItemsField: "algos", ResultField: "results",
				Join: flow.JoinEnvelope, IterName: "TrainOne",
				Iter: &flow.Node{
					Name: "TrainOne", Kind: flow.KindTask,
					Fn: "ml-trainmodel" + sfx, Stage: "train",
					ConsumedMemMB: mlpipe.MemTrain, CodeSizeMB: perFnCode,
					InEst: estAlgoMsg, OutEst: estTrainOut, EstSeconds: 20,
				},
			},
			{
				Name: "Select", Kind: flow.KindTask,
				Fn: "ml-select" + sfx, Stage: "select", MemMB: 512,
				ConsumedMemMB: mlpipe.MemSelect, CodeSizeMB: perFnCode,
				InEst: estResults, OutEst: estMsg, EstSeconds: 5,
			},
		},
		MachineName:   "ml-training-" + string(size),
		Comment:       "ML training workflow (paper Fig 2-3)",
		RetryAttempts: 5,
		FuncCount:     4,
		CodeSizeMB:    271.2,
	}

	queueG := &flow.Graph{
		Class: flow.Queue,
		Start: "Prep",
		Nodes: []*flow.Node{
			{
				Name: "Prep", Kind: flow.KindTask, Next: "DimRed",
				Fn: "mlq-prep" + sfx, Stage: "prep",
				ConsumedMemMB: mlpipe.MemPrep,
				InEst:         estMsg, OutEst: estMsg, EstSeconds: 10,
			},
			{
				Name: "DimRed", Kind: flow.KindTask, Next: "ModelSel",
				Fn: "mlq-dimred" + sfx, Stage: "dimred",
				QueueName:     "ml-dimred-q" + sfx,
				ConsumedMemMB: mlpipe.MemPrep,
				InEst:         estMsg, OutEst: estMsg, EstSeconds: 10,
			},
			{
				Name: "ModelSel", Kind: flow.KindTask, Next: "Select",
				Fn: "mlq-modelsel" + sfx, Stage: "modelsel",
				QueueName:     "ml-modelsel-q" + sfx,
				ConsumedMemMB: mlpipe.MemTrain,
				InEst:         estMsg, OutEst: estTrainOut, EstSeconds: 25,
			},
			{
				Name: "Select", Kind: flow.KindTask,
				Fn: "mlq-select" + sfx, Stage: "queue-select",
				QueueName:     "ml-select-q" + sfx,
				ConsumedMemMB: mlpipe.MemSelect,
				InEst:         estTrainOut, OutEst: estMsg, EstSeconds: 5,
			},
		},
		FuncCount:  4,
		CodeSizeMB: 304,
	}

	dorch := &flow.Graph{
		Class:    flow.DurableOrch,
		Variants: []string{"", "n"},
		Start:    "Prep",
		Nodes: []*flow.Node{
			{
				Name: "Prep", Kind: flow.KindTask, Next: "DimRed",
				Fn: "dorch-prep" + sfx, Stage: "prep",
				ConsumedMemMB: mlpipe.MemPrep,
				InEst:         estMsg, OutEst: estMsg, EstSeconds: 10,
			},
			{
				Name: "DimRed", Kind: flow.KindTask, Next: "TrainModels",
				Fn: "dorch-dimred" + sfx, Stage: "dimred",
				ConsumedMemMB: mlpipe.MemPrep,
				InEst:         estMsg, OutEst: estMsg, EstSeconds: 10,
			},
			{
				Name: "TrainModels", Kind: flow.KindMap, Next: "Select",
				Fan: "algos", Join: flow.JoinArray,
				Iter: &flow.Node{
					Name: "TrainOne", Kind: flow.KindTask,
					Fn: "dorch-train" + sfx, Stage: "train",
					ConsumedMemMB: mlpipe.MemTrain,
					InEst:         estAlgoMsg, OutEst: estTrainOut, EstSeconds: 20,
				},
			},
			{
				Name: "Select", Kind: flow.KindTask,
				Fn: "dorch-select" + sfx, Stage: "dorch-select",
				ConsumedMemMB: mlpipe.MemSelect,
				InEst:         estResults, OutEst: estMsg, EstSeconds: 5,
			},
		},
		MachineName:       "ml-train-dorch" + sfx,
		OrchConsumedMemMB: mlpipe.MemOrch,
		FuncCount:         6,
		CodeSizeMB:        304,
	}

	entID := func(name string) string { return name + sfx }
	dent := &flow.Graph{
		Class:    flow.DurableEnt,
		Variants: []string{"", "n"},
		Start:    "Encode",
		Nodes: []*flow.Node{
			{
				Name: "Encode", Kind: flow.KindTask, Next: "Scale",
				Entity: entID("Encoding"), EntityKey: "shared", Op: "fit",
				InEst: estMsg, OutEst: estMsg, EstSeconds: 10,
			},
			{
				Name: "Scale", Kind: flow.KindTask, Next: "Decompose",
				Entity: entID("Scalar"), EntityKey: "shared", Op: "fit",
				InEst: estMsg, OutEst: estMsg, EstSeconds: 10,
			},
			{
				Name: "Decompose", Kind: flow.KindTask, Next: "TrainAll",
				Entity: entID("DReduction"), EntityKey: "shared", Op: "decompose",
				InEst: estMsg, OutEst: estMsg, EstSeconds: 10,
			},
			{
				Name: "TrainAll", Kind: flow.KindParallel, Next: "Report",
				Join: flow.JoinArray,
				Branches: []*flow.Node{
					{
						Name: "TrainRF", Kind: flow.KindSub,
						InEst: estMsg, OutEst: estTrainOut,
						SubGraph: &flow.Graph{
							Class: flow.DurableOrch,
							Start: "RFTrain",
							Nodes: []*flow.Node{{
								Name: "RFTrain", Kind: flow.KindTask,
								Fn: "dent-rf-train" + sfx, Stage: "train-rf",
								ConsumedMemMB: mlpipe.MemTrain,
								InEst:         estMsg, OutEst: estTrainOut, EstSeconds: 20,
							}},
							MachineName:       "dent-rf-sub" + sfx,
							OrchConsumedMemMB: mlpipe.MemOrch,
						},
					},
					{
						Name: "TrainKNN", Kind: flow.KindTask,
						Entity: entID("KNeighbors"), EntityKey: "shared", Op: "train",
						InEst: estMsg, OutEst: estTrainOut, EstSeconds: 20,
					},
					{
						Name: "TrainLasso", Kind: flow.KindTask,
						Entity: entID("Lasso"), EntityKey: "shared", Op: "train",
						InEst: estMsg, OutEst: estTrainOut, EstSeconds: 20,
					},
				},
			},
			{
				Name: "Report", Kind: flow.KindMap, Next: "GetBest",
				Serial: true, Join: flow.JoinDiscard,
				Iter: &flow.Node{
					Name: "ReportOne", Kind: flow.KindTask,
					Entity: entID("ModelSelection"), EntityKey: "shared", Op: "report",
					InEst: estTrainOut, EstSeconds: 2,
				},
			},
			{
				Name: "GetBest", Kind: flow.KindTask, Next: "Finish",
				Input:  flow.InputNone,
				Entity: entID("ModelSelection"), EntityKey: "shared", Op: "get",
				OutEst: estTrainOut,
			},
			{
				Name: "Finish", Kind: flow.KindTask,
				Pure: true, Stage: "finish",
				InEst: estTrainOut, OutEst: estMsg,
			},
		},
		MachineName:       "ml-train-dent" + sfx,
		OrchConsumedMemMB: mlpipe.MemOrch,
		FuncCount:         7,
		CodeSizeMB:        304,
		Entities: []flow.EntityDecl{
			{Name: entID("Encoding"), ConsumedMemMB: mlpipe.MemPrep, Ops: map[string]string{"fit": "ent-encode"}, GetOp: "get"},
			{Name: entID("Scalar"), ConsumedMemMB: mlpipe.MemPrep, Ops: map[string]string{"fit": "ent-scale"}, GetOp: "get"},
			{Name: entID("DReduction"), ConsumedMemMB: mlpipe.MemPrep, Ops: map[string]string{"decompose": "ent-decompose"}, GetOp: "get"},
			{Name: entID("KNeighbors"), ConsumedMemMB: mlpipe.MemTrain, Ops: map[string]string{"train": "ent-train-kneighbors"}, GetOp: "get"},
			{Name: entID("Lasso"), ConsumedMemMB: mlpipe.MemTrain, Ops: map[string]string{"train": "ent-train-lasso"}, GetOp: "get"},
			{Name: entID("ModelSelection"), ConsumedMemMB: mlpipe.MemSelect, Ops: map[string]string{"report": "ent-report"}, GetOp: "get",
				GetErr: "mltrain: ModelSelection has no model yet"},
		},
	}

	graphs := map[flow.Class]*flow.Graph{
		flow.Mono:        mono,
		flow.Machine:     machine,
		flow.Queue:       queueG,
		flow.DurableOrch: dorch,
		flow.DurableEnt:  dent,
	}
	if arts != nil {
		for _, g := range graphs {
			g.Preloads = []flow.Preload{{Key: datasetKey(size), Data: arts.DatasetCSV}}
		}
	}

	def := &flow.Definition{
		Name:      "ml-training-" + string(size),
		ErrPrefix: "mltrain",
		Graphs:    graphs,
		Bind:      bindStages(size, arts),
		Entry: func(class flow.Class, run int64) []byte {
			if class == flow.Queue {
				return marshalMsg(stepMsg{Run: run, Key: datasetKey(size)})
			}
			return marshalMsg(stepMsg{Run: run})
		},
		EntryMap: func(run int64) map[string]any {
			return map[string]any{"run": float64(run)}
		},
		Speeds: map[string]float64{
			"AWS":       mlpipe.AWSSpeed,
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

// costsScope reproduces the per-deployment cost-model RNG scopes the
// pre-IR implementations used, so every calibrated draw stays on the
// same named stream.
func costsScope(b flow.Binding) (scope string, speed float64, err error) {
	switch b.Provider {
	case "AWS":
		if b.Class == flow.Mono {
			return "aws-mltrain-mono", mlpipe.AWSSpeed, nil
		}
		return "aws-mltrain-step", mlpipe.AWSSpeed, nil
	case "Azure", "Netherite":
		prefix := "az-mltrain"
		if b.Variant == "n" {
			prefix = "az-mltrain-n"
		}
		switch b.Class {
		case flow.Mono:
			return prefix + "-mono", mlpipe.AzureSpeed, nil
		case flow.Queue:
			return prefix + "-queue", mlpipe.AzureSpeed, nil
		case flow.DurableOrch:
			return prefix + "-dorch", mlpipe.AzureSpeed, nil
		case flow.DurableEnt:
			return prefix + "-dent", mlpipe.AzureSpeed, nil
		}
	case "GCP":
		if b.Class == flow.Mono {
			return "gcp-mltrain-mono", gcpSpeed, nil
		}
		return "gcp-mltrain-wflow", gcpSpeed, nil
	}
	return "", 0, fmt.Errorf("mltrain: no cost scope for %s/%s", b.Provider, b.Class)
}

// bindStages builds the per-deployment stage closures: the exact
// pre-IR handler bodies, parameterized only by the binding's blob
// store and cost scope.
func bindStages(size mlpipe.DatasetSize, arts *mlpipe.Artifacts) func(b flow.Binding) (*flow.Stages, error) {
	return func(b flow.Binding) (*flow.Stages, error) {
		if arts == nil {
			return nil, fmt.Errorf("mltrain: binding requires trained artifacts")
		}
		scope, speed, err := costsScope(b)
		if err != nil {
			return nil, err
		}
		env := b.Env
		store := b.Blob
		costs := mlpipe.NewCosts(env.K, scope, speed)

		// dimredCore is the shared PCA step: download the encoded frame,
		// project, stage the projection, answer with its key.
		dimredCore := func(a flow.Act, input []byte) (stepMsg, string, error) {
			m, err := parseMsg(input)
			if err != nil {
				return stepMsg{}, "", err
			}
			p := a.Proc()
			if _, err := store.Get(p, m.Key); err != nil {
				return stepMsg{}, "", err
			}
			a.Busy(costs.Xfer(arts.EncodedBytes))
			a.Busy(costs.DimRed(size))
			a.Busy(costs.Xfer(arts.ProjectedBytes))
			key := runKey(m.Run, "projected")
			store.PutShared(p, key, payload.Zeros(arts.ProjectedBytes))
			return m, key, nil
		}

		// selectCore publishes the winning model from a picked result.
		selectCore := func(a flow.Act, best stepMsg) ([]byte, error) {
			p := a.Proc()
			src, err := store.Get(p, best.Model)
			if err != nil {
				return nil, err
			}
			a.Busy(costs.Xfer(len(src)))
			store.PutShared(p, bestModelKey, src)
			return mlpipe.EncodeResult(best.Algo, best.MSE), nil
		}

		pickBest := func(results []stepMsg) (stepMsg, error) {
			if len(results) == 0 {
				return stepMsg{}, fmt.Errorf("mltrain: select got no results")
			}
			best := results[0]
			for _, r := range results[1:] {
				if r.MSE < best.MSE {
					best = r
				}
			}
			return best, nil
		}

		trainBody := func(a flow.Act, run int64, algo string) ([]byte, error) {
			a.Busy(costs.Xfer(arts.ProjectedBytes))
			a.Busy(costs.TrainModel(algo, size))
			a.Busy(costs.Xfer(len(arts.ModelBytes[algo])))
			modelKey := runKey(run, "model-"+algo)
			store.PutShared(a.Proc(), modelKey, arts.ModelBytes[algo])
			return marshalMsg(stepMsg{Run: run, Algo: algo, MSE: arts.ModelMSE[algo], Model: modelKey}), nil
		}

		tasks := map[string]flow.StageFn{
			"mono": func(a flow.Act, _ []byte) ([]byte, error) {
				p := a.Proc()
				load := env.Stage(p, "mono/load")
				if _, err := store.Get(p, datasetKey(size)); err != nil {
					return nil, err
				}
				load.End(p.Now())
				train := env.Stage(p, "mono/train")
				a.Busy(costs.MonolithTrain(size))
				train.End(p.Now())
				publish := env.Stage(p, "mono/publish")
				a.Busy(costs.Xfer(len(arts.EncoderBytes) + len(arts.ScalerBytes) + len(arts.PCABytes) + len(arts.ModelBytes[arts.BestName])))
				store.PutShared(p, "models/encoder", arts.EncoderBytes)
				store.PutShared(p, "models/scaler", arts.ScalerBytes)
				store.PutShared(p, "models/pca", arts.PCABytes)
				store.PutShared(p, bestModelKey, arts.ModelBytes[arts.BestName])
				publish.End(p.Now())
				return mlpipe.EncodeResult(arts.BestName, arts.BestMSE), nil
			},
			"prep": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				if _, err := store.Get(p, datasetKey(size)); err != nil {
					return nil, err
				}
				a.Busy(costs.Prep(size))
				a.Busy(costs.Xfer(arts.EncodedBytes))
				key := runKey(m.Run, "encoded")
				store.PutShared(p, key, payload.Zeros(arts.EncodedBytes))
				return marshalMsg(stepMsg{Run: m.Run, Key: key}), nil
			},
			"dimred": func(a flow.Act, input []byte) ([]byte, error) {
				m, key, err := dimredCore(a, input)
				if err != nil {
					return nil, err
				}
				return marshalMsg(stepMsg{Run: m.Run, Key: key}), nil
			},
			// The machine-class DimRed answers differently per backend:
			// the ASL Map state consumes an {"run","algos"} envelope
			// (ItemsPath), while the Workflows interpreter fans out via
			// the bound "algos" fan on the plain message.
			"dimred-machine": func(a flow.Act, input []byte) ([]byte, error) {
				m, key, err := dimredCore(a, input)
				if err != nil {
					return nil, err
				}
				if b.Provider != "AWS" {
					return marshalMsg(stepMsg{Run: m.Run, Key: key}), nil
				}
				// Emit one Map item per algorithm.
				items := make([]stepMsg, 0, len(mlpipe.Algorithms))
				for _, algo := range mlpipe.Algorithms {
					items = append(items, stepMsg{Run: m.Run, Key: key, Algo: algo})
				}
				return json.Marshal(map[string]any{"run": m.Run, "algos": items})
			},
			"train": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				if _, err := store.Get(a.Proc(), m.Key); err != nil {
					return nil, err
				}
				return trainBody(a, m.Run, m.Algo)
			},
			"select": func(a flow.Act, input []byte) ([]byte, error) {
				var in struct {
					Results []stepMsg `json:"results"`
				}
				if err := json.Unmarshal(input, &in); err != nil {
					return nil, err
				}
				best, err := pickBest(in.Results)
				if err != nil {
					return nil, err
				}
				a.Busy(costs.SelectBest(size))
				return selectCore(a, best)
			},
			"dorch-select": func(a flow.Act, input []byte) ([]byte, error) {
				var results []stepMsg
				if err := json.Unmarshal(input, &results); err != nil {
					return nil, err
				}
				best, err := pickBest(results)
				if err != nil {
					return nil, err
				}
				a.Busy(costs.SelectBest(size))
				return selectCore(a, best)
			},
			"modelsel": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				if _, err := store.Get(p, m.Key); err != nil {
					return nil, err
				}
				a.Busy(costs.Xfer(arts.ProjectedBytes))
				// The three models train inside this one function,
				// overlapped on the worker's cores like the monolith.
				a.Busy(costs.TrainAllPartial(size))
				best := stepMsg{Run: m.Run}
				for i, algo := range mlpipe.Algorithms {
					modelKey := runKey(m.Run, "model-"+algo)
					a.Busy(costs.Xfer(len(arts.ModelBytes[algo])))
					store.PutShared(p, modelKey, arts.ModelBytes[algo])
					if i == 0 || arts.ModelMSE[algo] < best.MSE {
						best = stepMsg{Run: m.Run, Algo: algo, MSE: arts.ModelMSE[algo], Model: modelKey}
					}
				}
				return marshalMsg(best), nil
			},
			"queue-select": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				a.Busy(costs.SelectBest(size))
				return selectCore(a, m)
			},
			"ent-encode": func(a flow.Act, input []byte) ([]byte, error) {
				sa := a.(flow.StateAct)
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				if _, err := store.Get(p, datasetKey(size)); err != nil {
					return nil, err
				}
				a.Busy(costs.Prep(size) * 6 / 10) // encode share of prep
				a.Busy(costs.Xfer(arts.EncodedBytes))
				sa.SetState(arts.EncoderBytes)
				key := runKey(m.Run, "encoded")
				store.PutShared(p, key, payload.Zeros(arts.EncodedBytes))
				return marshalMsg(stepMsg{Run: m.Run, Key: key}), nil
			},
			"ent-scale": func(a flow.Act, input []byte) ([]byte, error) {
				sa := a.(flow.StateAct)
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				p := a.Proc()
				if _, err := store.Get(p, m.Key); err != nil {
					return nil, err
				}
				a.Busy(costs.Xfer(arts.EncodedBytes))
				a.Busy(costs.Prep(size) * 4 / 10) // scale share of prep
				a.Busy(costs.Xfer(arts.EncodedBytes))
				sa.SetState(arts.ScalerBytes)
				key := runKey(m.Run, "scaled")
				store.PutShared(p, key, payload.Zeros(arts.EncodedBytes))
				return marshalMsg(stepMsg{Run: m.Run, Key: key}), nil
			},
			"ent-decompose": func(a flow.Act, input []byte) ([]byte, error) {
				sa := a.(flow.StateAct)
				m, key, err := dimredCore(a, input)
				if err != nil {
					return nil, err
				}
				sa.SetState(arts.PCABytes)
				return marshalMsg(stepMsg{Run: m.Run, Key: key}), nil
			},
			"train-rf": func(a flow.Act, input []byte) ([]byte, error) {
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				if _, err := store.Get(a.Proc(), m.Key); err != nil {
					return nil, err
				}
				return trainBody(a, m.Run, "randomforest")
			},
			"ent-report": func(a flow.Act, input []byte) ([]byte, error) {
				sa := a.(flow.StateAct)
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				a.Busy(costs.SelectBest(size) / 3)
				var cur stepMsg
				if sa.HasState() {
					if err := json.Unmarshal(sa.State(), &cur); err != nil {
						return nil, err
					}
				}
				if !sa.HasState() || m.MSE < cur.MSE {
					sa.SetState(marshalMsg(m))
					p := a.Proc()
					src, err := store.Get(p, m.Model)
					if err != nil {
						return nil, err
					}
					store.PutShared(p, bestModelKey, src)
				}
				return nil, nil
			},
			"finish": func(_ flow.Act, input []byte) ([]byte, error) {
				best, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				return mlpipe.EncodeResult(best.Algo, best.MSE), nil
			},
		}
		// Small-model training entities (paper: "for smaller and faster
		// models we used a stateful entity").
		for _, algo := range []string{"kneighbors", "lasso"} {
			algo := algo
			tasks["ent-train-"+algo] = func(a flow.Act, input []byte) ([]byte, error) {
				sa := a.(flow.StateAct)
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				if _, err := store.Get(a.Proc(), m.Key); err != nil {
					return nil, err
				}
				out, err := trainBody(a, m.Run, algo)
				if err != nil {
					return nil, err
				}
				sa.SetState([]byte(runKey(m.Run, "model-"+algo)))
				return out, nil
			}
		}

		fans := map[string]flow.FanFn{
			// One fan-out item per algorithm, built from the dimred
			// output message.
			"algos": func(input []byte) ([][]byte, error) {
				m, err := parseMsg(input)
				if err != nil {
					return nil, err
				}
				items := make([][]byte, 0, len(mlpipe.Algorithms))
				for _, algo := range mlpipe.Algorithms {
					items = append(items, marshalMsg(stepMsg{Run: m.Run, Key: m.Key, Algo: algo}))
				}
				return items, nil
			},
		}
		return &flow.Stages{Tasks: tasks, Fans: fans}, nil
	}
}

// FlowDef exposes the workload's IR for static consumers (the graph
// subcommand, lint, and lowering-program tests); stages are unbound.
func (w *Workflow) FlowDef() (*flow.Definition, error) {
	def, err := definition(w.Size, nil)
	if err != nil {
		return nil, err
	}
	flow.OverrideMemMB(def, w.MemMB)
	return def, nil
}
