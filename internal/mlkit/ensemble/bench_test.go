package ensemble

import (
	"testing"

	"statebench/internal/sim"
)

func benchData(n int) ([][]float64, []float64) {
	r := sim.NewRNG(1)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Uniform(0, 10), r.Uniform(0, 10), r.Uniform(0, 10), r.Uniform(0, 10)}
		y[i] = X[i][0]*2 + X[i][1]*X[i][2]
	}
	return X, y
}

func BenchmarkForestFit(b *testing.B) {
	X, y := benchData(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &RandomForestRegressor{NumTrees: 10, MaxDepth: 8, Seed: 7}
		if err := f.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestPredict(b *testing.B) {
	X, y := benchData(1000)
	f := &RandomForestRegressor{NumTrees: 10, MaxDepth: 8, Seed: 7}
	if err := f.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.Predict(X[:100]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeFit(b *testing.B) {
	X, y := benchData(1000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := &RegressionTree{MaxDepth: 10}
		if err := tr.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForestFitLarge fits the forest the large ML-training dataset
// gets (7,500 training rows of 20 continuous features, 24 trees, depth
// 13, MinSamplesLeaf 2) on synthetic data of the same shape.
func BenchmarkForestFitLarge(b *testing.B) {
	X, y := continuousData(7500, 20, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := &RandomForestRegressor{NumTrees: 24, MaxDepth: 13, MinSamplesLeaf: 2, Seed: 13}
		if err := f.Fit(X, y); err != nil {
			b.Fatal(err)
		}
	}
}
