package mlpipe

import (
	"math"
	"testing"

	"statebench/internal/mlkit/dataframe"
	"statebench/internal/mlkit/decomp"
	"statebench/internal/mlkit/metrics"
	"statebench/internal/mlkit/modelsel"
	"statebench/internal/mlkit/preprocess"
	"statebench/internal/payload"
)

// BenchmarkPayloadMLTrain measures one cache-cold run of the real small
// training pipeline — a fresh engine every iteration, so nothing is
// memoized — pinning the mlkit scratch/flat-backing allocation work.
func BenchmarkPayloadMLTrain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TrainWith(payload.NewEngine(), Small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayloadMLTrainWarm measures the memoized path: every
// iteration after the first is a single cache hit.
func BenchmarkPayloadMLTrainWarm(b *testing.B) {
	eng := payload.NewEngine()
	if _, err := TrainWith(eng, Small); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainWith(eng, Small); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKNNPredictPipeline scores the large dataset's validation
// split with the pipeline's k-NN model: 2,500 queries against 7,500
// training rows of the real PCA-projected features, whose spread
// decays from the first component to the last as the uniform synthetic
// rows of neighbors' BenchmarkKNNPredictLarge do not, so Predict's
// partial-distance pruning skips as much of each sum as in the sweep. The
// split is rebuilt as train builds it, and checked against the
// validation MSE TestTrainedArtifactsPinned pins.
func BenchmarkKNNPredictPipeline(b *testing.B) {
	df := dataframe.GenerateCars(Large.Rows(), trainSeed)
	target, ok := df.Column("price")
	if !ok {
		b.Fatal("dataset has no price column")
	}
	features, err := df.Drop("price")
	if err != nil {
		b.Fatal(err)
	}
	encoded, err := preprocess.FitOneHot(features).Transform(features)
	if err != nil {
		b.Fatal(err)
	}
	X := encoded.NumericMatrix()
	Xs, err := preprocess.FitStandard(X).Transform(X)
	if err != nil {
		b.Fatal(err)
	}
	pca, err := decomp.FitPCA(Xs, PCAComponents)
	if err != nil {
		b.Fatal(err)
	}
	Xp, err := pca.Transform(Xs)
	if err != nil {
		b.Fatal(err)
	}
	trX, trY, vaX, vaY, err := modelsel.Split(Xp, target.Nums, 0.25, 7)
	if err != nil {
		b.Fatal(err)
	}
	model := NewModel("kneighbors", Large)
	if err := model.Fit(trX, trY); err != nil {
		b.Fatal(err)
	}
	pred, err := model.Predict(vaX)
	if err != nil {
		b.Fatal(err)
	}
	if mse, err := metrics.MSE(vaY, pred); err != nil || math.Float64bits(mse) != 0x41b4f57dc104744a {
		b.Fatalf("validation MSE %v (%v) is not the pipeline's pinned one", mse, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Predict(vaX); err != nil {
			b.Fatal(err)
		}
	}
}
