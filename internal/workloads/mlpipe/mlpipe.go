// Package mlpipe holds the pieces shared by the ML training and
// inference workloads: the real (host-side) pipeline computation that
// produces trained artifacts with realistic byte sizes, and the
// calibrated cost model translating each pipeline step into simulated
// execution time on each platform.
//
// The real computation runs once per dataset size (cached) to verify
// the pipeline end to end and to obtain genuine payloads; per-iteration
// simulated durations come from the cost model, scaled by dataset size
// and platform speed, as the paper's Python/sklearn steps would be.
package mlpipe

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"statebench/internal/mlkit/dataframe"
	"statebench/internal/mlkit/decomp"
	"statebench/internal/mlkit/ensemble"
	"statebench/internal/mlkit/linmodel"
	"statebench/internal/mlkit/metrics"
	"statebench/internal/mlkit/modelsel"
	"statebench/internal/mlkit/neighbors"
	"statebench/internal/mlkit/preprocess"
	"statebench/internal/payload"
	"statebench/internal/sim"
)

// DatasetSize selects the paper's two dataset variants.
type DatasetSize string

// Dataset sizes.
const (
	Small DatasetSize = "small" // 200 rows
	Large DatasetSize = "large" // 10,000 rows
)

// Rows returns the dataset's row count.
func (d DatasetSize) Rows() int {
	if d == Small {
		return 200
	}
	return 10000
}

// Algorithms searched by the model-selection step (paper §IV).
var Algorithms = []string{"randomforest", "kneighbors", "lasso"}

// PCAComponents is the dimension-reduction target.
const PCAComponents = 20

// Artifacts is everything the real pipeline produces, with serialized
// forms so workloads move realistic byte payloads.
type Artifacts struct {
	// Raw dataset as CSV (what the workflows download/transfer).
	DatasetCSV []byte
	// TestCSV is a held-out same-shape dataset for inference runs.
	TestCSV []byte

	Encoder *preprocess.OneHotEncoder
	Scaler  *preprocess.StandardScaler
	PCA     *decomp.PCA

	EncoderBytes []byte
	ScalerBytes  []byte
	PCABytes     []byte

	// EncodedBytes and ProjectedBytes approximate the intermediate
	// dataframe sizes flowing between pipeline steps.
	EncodedBytes   int
	ProjectedBytes int

	// Per-algorithm validation MSE and serialized model.
	ModelMSE   map[string]float64
	ModelBytes map[string][]byte

	BestName string
	BestMSE  float64
}

// Dataset generation seeds (train and held-out test split).
const (
	trainSeed = 20210600
	testSeed  = 20210601
)

// PayloadBytes sums the serialized artifact payloads — what the cache
// accounts under its bytes counter.
func (a *Artifacts) PayloadBytes() int {
	n := len(a.DatasetCSV) + len(a.TestCSV) + len(a.EncoderBytes) + len(a.ScalerBytes) + len(a.PCABytes)
	for _, b := range a.ModelBytes {
		n += len(b)
	}
	return n
}

// TrainWith runs the full real pipeline for the given dataset size,
// memoized through eng — suite runs pass their per-run engine so every
// campaign (any impl, provider, or repetition) reuses one computation,
// and warm/cold behaviour is uniform per run instead of depending on
// in-process call order. The returned Artifacts are shared and must be
// treated as immutable.
func TrainWith(eng *payload.Engine, size DatasetSize) (*Artifacts, error) {
	key := payload.Key{
		Workload: "mlpipe",
		Stage:    "train",
		Input:    payload.DigestOf("cars", size.Rows(), trainSeed, testSeed),
		Params:   payload.DigestOf("pca", PCAComponents, "split", 0.25, 7, "grid", string(size)),
	}
	a, _, err := payload.Get(eng, key, func() (*Artifacts, int, error) {
		a, err := train(eng, size)
		if err != nil {
			return nil, 0, err
		}
		return a, a.PayloadBytes(), nil
	})
	return a, err
}

func train(eng *payload.Engine, size DatasetSize) (*Artifacts, error) {
	df := dataframe.GenerateCars(size.Rows(), trainSeed)
	test := dataframe.GenerateCars(size.Rows(), testSeed)

	a := &Artifacts{ModelMSE: map[string]float64{}, ModelBytes: map[string][]byte{}}
	var err error
	if a.DatasetCSV, err = df.CSVBytes(); err != nil {
		return nil, err
	}
	if a.TestCSV, err = test.CSVBytes(); err != nil {
		return nil, err
	}

	// Feature engineering: drop target, one-hot encode, scale.
	target, ok := df.Column("price")
	if !ok {
		return nil, fmt.Errorf("mlpipe: dataset has no price column")
	}
	y := append([]float64(nil), target.Nums...)
	features, err := df.Drop("price")
	if err != nil {
		return nil, err
	}
	a.Encoder = preprocess.FitOneHot(features)
	encoded, err := a.Encoder.Transform(features)
	if err != nil {
		return nil, err
	}
	X := encoded.NumericMatrix()
	a.Scaler = preprocess.FitStandard(X)
	Xs, err := a.Scaler.Transform(X)
	if err != nil {
		return nil, err
	}
	// Intermediate dataframes travel as CSV text between functions
	// (the paper's Python steps exchanged pandas CSV through storage):
	// ~12 bytes per value.
	a.EncodedBytes = len(Xs) * len(Xs[0]) * 12

	// Dimension reduction.
	if a.PCA, err = decomp.FitPCA(Xs, PCAComponents); err != nil {
		return nil, err
	}
	Xp, err := a.PCA.Transform(Xs)
	if err != nil {
		return nil, err
	}
	a.ProjectedBytes = len(Xp) * PCAComponents * 12

	// Model selection: train each algorithm, score on a held-out split.
	trX, trY, vaX, vaY, err := modelsel.Split(Xp, y, 0.25, 7)
	if err != nil {
		return nil, err
	}
	splitDigest := digestSplit(trX, trY, vaX, vaY)
	best := &modelsel.BestFit{}
	for _, algo := range Algorithms {
		r, err := fitAlgorithm(eng, algo, size, splitDigest, trX, trY, vaX, vaY)
		if err != nil {
			return nil, err
		}
		a.ModelMSE[algo] = r.MSE
		a.ModelBytes[algo] = r.Blob
		best.Report(algo, r.MSE)
	}
	a.BestName = best.Name
	a.BestMSE = best.MSE

	if a.EncoderBytes, err = preprocess.Encode(a.Encoder); err != nil {
		return nil, err
	}
	if a.ScalerBytes, err = preprocess.Encode(a.Scaler); err != nil {
		return nil, err
	}
	if a.PCABytes, err = preprocess.Encode(a.PCA); err != nil {
		return nil, err
	}
	return a, nil
}

// fitResult is the memoized outcome of one model-fit stage.
type fitResult struct {
	MSE  float64
	Blob []byte
}

// fitAlgorithm trains and scores one algorithm on the split, memoized
// under a per-stage key: the input digest addresses the split's
// content, the params digest the full hyper-parameter tuple (rendered
// from the constructed model, so changing the grid invalidates the
// entry automatically).
func fitAlgorithm(eng *payload.Engine, algo string, size DatasetSize, input payload.Digest, trX [][]float64, trY []float64, vaX [][]float64, vaY []float64) (fitResult, error) {
	key := payload.Key{
		Workload: "mlpipe",
		Stage:    "fit/" + algo,
		Input:    input,
		Params:   payload.DigestOf(fmt.Sprintf("%+v", NewModel(algo, size))),
	}
	r, _, err := payload.Get(eng, key, func() (fitResult, int, error) {
		model := NewModel(algo, size)
		if err := model.Fit(trX, trY); err != nil {
			return fitResult{}, 0, fmt.Errorf("mlpipe: fit %s: %w", algo, err)
		}
		pred, err := model.Predict(vaX)
		if err != nil {
			return fitResult{}, 0, err
		}
		mse, err := metrics.MSE(vaY, pred)
		if err != nil {
			return fitResult{}, 0, err
		}
		blob, err := preprocess.Encode(model)
		if err != nil {
			return fitResult{}, 0, fmt.Errorf("mlpipe: encode %s: %w", algo, err)
		}
		return fitResult{MSE: mse, Blob: blob}, len(blob), nil
	})
	return r, err
}

// digestSplit content-addresses the model-selection split: every
// float64 of both matrices and target vectors, plus their shapes.
func digestSplit(trX [][]float64, trY []float64, vaX [][]float64, vaY []float64) payload.Digest {
	h := sha256.New()
	var buf [8]byte
	writeVec := func(v []float64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
		h.Write(buf[:])
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	writeMat := func(m [][]float64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(m)))
		h.Write(buf[:])
		for _, row := range m {
			writeVec(row)
		}
	}
	writeMat(trX)
	writeVec(trY)
	writeMat(vaX)
	writeVec(vaY)
	var d payload.Digest
	h.Sum(d[:0])
	return d
}

// NewModel constructs a fresh unfitted model for an algorithm name,
// sized for the dataset (mirroring the paper's grid).
func NewModel(algo string, size DatasetSize) linmodel.Regressor {
	switch algo {
	case "randomforest":
		trees, depth := 24, 13
		if size == Small {
			trees, depth = 24, 6
		}
		return &ensemble.RandomForestRegressor{NumTrees: trees, MaxDepth: depth, MinSamplesLeaf: 2, Seed: 13}
	case "kneighbors":
		return &neighbors.KNeighborsRegressor{K: 5}
	case "lasso":
		return &linmodel.Lasso{Alpha: 2.0, MaxIter: 400}
	}
	panic(fmt.Sprintf("mlpipe: unknown algorithm %q", algo))
}

// Costs models each step's execution time: the base durations are for
// the large dataset at AWS speed (1.5 GB Lambda); Scale maps dataset
// size, Speed maps platform, and a lognormal factor adds run-to-run
// variance.
type Costs struct {
	// Speed divides durations (>1 is faster). The paper attributes
	// AWS's execution-time edge to its configurable (larger effective)
	// memory; Azure's fixed consumption plan runs the same Python
	// ~25% slower.
	Speed float64
	rng   *sim.RNG
	noise sim.Dist
}

// NewCosts builds a cost model drawing noise from the kernel stream
// named scope.
func NewCosts(k *sim.Kernel, scope string, speed float64) *Costs {
	if speed <= 0 {
		speed = 1
	}
	return &Costs{
		Speed: speed,
		rng:   k.Stream("costs/" + scope),
		noise: sim.LogNormalDist{Median: time.Second, Sigma: 0.07, Max: 2 * time.Second},
	}
}

// factor returns the dataset scaling: sublinear in rows with a floor
// for interpreter/startup overhead.
func factor(size DatasetSize) float64 {
	if size == Small {
		return 0.13
	}
	return 1.0
}

func (c *Costs) jitter() float64 {
	return float64(c.noise.Sample(c.rng)) / float64(time.Second)
}

func (c *Costs) step(base time.Duration, size DatasetSize) time.Duration {
	return time.Duration(float64(base) * factor(size) * c.jitter() / c.Speed)
}

// Prep is data preparation (parse, encode, scale).
func (c *Costs) Prep(size DatasetSize) time.Duration { return c.step(6*time.Second, size) }

// DimRed is the PCA step.
func (c *Costs) DimRed(size DatasetSize) time.Duration { return c.step(7*time.Second, size) }

// TrainModel is per-algorithm training time.
func (c *Costs) TrainModel(algo string, size DatasetSize) time.Duration {
	switch algo {
	case "randomforest":
		return c.step(28*time.Second, size)
	case "kneighbors":
		return c.step(6*time.Second, size)
	case "lasso":
		return c.step(9*time.Second, size)
	}
	return c.step(10*time.Second, size)
}

// SelectBest is the final comparison step.
func (c *Costs) SelectBest(size DatasetSize) time.Duration { return c.step(500*time.Millisecond, size) }

// InferencePrep is the feature-engineering time for one prediction
// batch (InferBatchRows rows — inference serves request batches, not
// bulk scoring, so it does not scale with the training dataset).
func (c *Costs) InferencePrep(DatasetSize) time.Duration {
	return time.Duration(float64(120*time.Millisecond) * c.jitter() / c.Speed)
}

// Predict is the model application time for one prediction batch.
func (c *Costs) Predict(DatasetSize) time.Duration {
	return time.Duration(float64(240*time.Millisecond) * c.jitter() / c.Speed)
}

// TrainAllPartial is the model-selection stage when the three models
// train inside one function: the runtime overlaps them on the worker's
// cores, so the cost is the longest model plus a fraction of the rest
// (the monolith and Az-Queue modelsel stage run this way).
func (c *Costs) TrainAllPartial(size DatasetSize) time.Duration {
	var longest, sum time.Duration
	for _, algo := range Algorithms {
		d := c.TrainModel(algo, size)
		sum += d
		if d > longest {
			longest = d
		}
	}
	return longest + (sum-longest)*3/10
}

// MonolithTrain is the whole pipeline in one function.
func (c *Costs) MonolithTrain(size DatasetSize) time.Duration {
	return c.Prep(size) + c.DimRed(size) + c.TrainAllPartial(size) + c.SelectBest(size)
}

// SerBW is the cross-function serialization/deserialization throughput
// (bytes/sec): the CPU cost of dumping/parsing dataframes at every
// function boundary. It is I/O-library bound and therefore platform
// independent. The monolith keeps data in memory and never pays it —
// the mechanism behind AWS-Step's dataset-dependent overhead (Fig 6b).
const SerBW = 1.0e6

// Xfer returns the serialization cost of moving n bytes across a
// function boundary (one side: serialize on write, deserialize on read).
func (c *Costs) Xfer(n int) time.Duration {
	return time.Duration(float64(n) / SerBW * float64(time.Second))
}

// Platform speed factors (see Costs.Speed). The paper attributes AWS's
// execution edge to its configurable memory (1.5–2 GB Lambdas get full
// vCPUs); Azure's consumption plan ran the same Python ~2.5x slower.
const (
	AWSSpeed   = 1.0
	AzureSpeed = 0.40
)

// InferBatchRows is the prediction batch size served per inference run.
const InferBatchRows = 100

// Consumed memory models (MB) per role — Azure bills these observed
// numbers; AWS bills its configured 1536 MB regardless (Table I).
const (
	MemPrep      = 360
	MemTrain     = 420
	MemSelect    = 160
	MemOrch      = 150
	MemInference = 300
	MemMonolith  = 430
)

// TrainResult is the small JSON summary returned by training runs.
type TrainResult struct {
	Best string  `json:"best"`
	MSE  float64 `json:"mse"`
}

// EncodeResult marshals a TrainResult.
func EncodeResult(best string, mse float64) []byte {
	b, _ := json.Marshal(TrainResult{Best: best, MSE: mse})
	return b
}
