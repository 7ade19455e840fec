package neighbors

import (
	"testing"

	"statebench/internal/sim"
)

// BenchmarkKNNPredictLarge scores the large ML-training dataset's
// validation split with K=5: 2,500 queries against 7,500 training rows
// of 20 continuous features, on synthetic data of that shape.
func BenchmarkKNNPredictLarge(b *testing.B) {
	r := sim.NewRNG(1)
	X := randomRows(r, 7500, 20)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = r.Uniform(0, 100)
	}
	queries := randomRows(r, 2500, 20)
	m := &KNeighborsRegressor{K: 5}
	if err := m.Fit(X, y); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(queries); err != nil {
			b.Fatal(err)
		}
	}
}
