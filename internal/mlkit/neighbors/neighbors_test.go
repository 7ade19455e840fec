package neighbors

import (
	"math"
	"testing"

	"statebench/internal/mlkit/metrics"
	"statebench/internal/sim"
)

func TestKNNBasic(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {10}, {11}, {12}}
	y := []float64{1, 1, 1, 9, 9, 9}
	m := &KNeighborsRegressor{K: 3}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict([][]float64{{1}, {11}})
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != 1 || pred[1] != 9 {
		t.Fatalf("pred = %v", pred)
	}
}

func TestKNNUniformAveraging(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}}
	y := []float64{0, 3, 9}
	m := &KNeighborsRegressor{K: 3}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred, _ := m.Predict([][]float64{{1}})
	if pred[0] != 4 {
		t.Fatalf("mean of all = %v, want 4", pred[0])
	}
}

func TestKNNDistanceWeighting(t *testing.T) {
	X := [][]float64{{0}, {10}}
	y := []float64{0, 10}
	m := &KNeighborsRegressor{K: 2, Weights: Distance}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Query at 1: weights 1/1 and 1/9 -> (0*1 + 10/9) / (1+1/9) = 1.
	pred, _ := m.Predict([][]float64{{1}})
	if math.Abs(pred[0]-1) > 1e-9 {
		t.Fatalf("weighted pred = %v, want 1", pred[0])
	}
}

func TestKNNExactMatchDominates(t *testing.T) {
	X := [][]float64{{0}, {5}}
	y := []float64{2, 8}
	m := &KNeighborsRegressor{K: 2, Weights: Distance}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred, _ := m.Predict([][]float64{{5}})
	if pred[0] != 8 {
		t.Fatalf("exact match pred = %v", pred[0])
	}
}

func TestKNNValidation(t *testing.T) {
	m := &KNeighborsRegressor{K: 0}
	if err := m.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("K=0 accepted")
	}
	m = &KNeighborsRegressor{K: 5}
	if err := m.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("K > n accepted")
	}
	m = &KNeighborsRegressor{K: 1}
	if _, err := m.Predict([][]float64{{1}}); err == nil {
		t.Fatal("unfitted predict accepted")
	}
	if err := m.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([][]float64{{1, 2}}); err == nil {
		t.Fatal("wide query accepted")
	}
	if len(m.XTrain) != 2 || len(m.YTrain) != 2 {
		t.Fatalf("training set = %d/%d rows", len(m.XTrain), len(m.YTrain))
	}
}

func TestKNNSmoothFunction(t *testing.T) {
	r := sim.NewRNG(1)
	n := 500
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x := r.Uniform(0, 10)
		X[i] = []float64{x}
		y[i] = math.Sin(x)
	}
	m := &KNeighborsRegressor{K: 7}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var qx [][]float64
	var qy []float64
	for x := 0.5; x < 9.5; x += 0.1 {
		qx = append(qx, []float64{x})
		qy = append(qy, math.Sin(x))
	}
	pred, _ := m.Predict(qx)
	mse, _ := metrics.MSE(qy, pred)
	if mse > 0.01 {
		t.Fatalf("knn mse on smooth fn = %v", mse)
	}
}
