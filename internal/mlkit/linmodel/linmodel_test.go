package linmodel

import (
	"math"
	"testing"

	"statebench/internal/mlkit/metrics"
	"statebench/internal/sim"
)

// linearData generates y = 3x0 - 2x1 + 5 + noise.
func linearData(n int, noise float64, seed uint64) ([][]float64, []float64) {
	r := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Uniform(-5, 5), r.Uniform(-5, 5)}
		y[i] = 3*X[i][0] - 2*X[i][1] + 5 + r.Normal(0, noise)
	}
	return X, y
}

func TestLinearRegressionValidation(t *testing.T) {
	var m Lasso
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if err := m.Fit([][]float64{{1}, {2}}, []float64{1}); err == nil {
		t.Fatal("mismatched fit accepted")
	}
	if err := m.Fit([][]float64{{1}, {2, 3}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged fit accepted")
	}
	if _, err := m.Predict([][]float64{{1}}); err == nil {
		t.Fatal("unfitted predict accepted")
	}
}

func TestPredictShapeMismatch(t *testing.T) {
	X, y := linearData(50, 0, 3)
	var m Lasso
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict([][]float64{{1}}); err == nil {
		t.Fatal("narrow predict accepted")
	}
}

func TestLassoSparsifies(t *testing.T) {
	// y depends only on x0; x1..x4 are noise features. Lasso should
	// zero most irrelevant coefficients.
	r := sim.NewRNG(5)
	n := 300
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Normal(0, 1), r.Normal(0, 1), r.Normal(0, 1), r.Normal(0, 1), r.Normal(0, 1)}
		y[i] = 4*X[i][0] + r.Normal(0, 0.1)
	}
	m := Lasso{Alpha: 0.5}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-4) > 0.5 {
		t.Fatalf("signal coef = %v", m.Coef[0])
	}
	zeros := 0
	for _, w := range m.Coef[1:] {
		if w == 0 {
			zeros++
		}
	}
	if zeros < 3 {
		t.Fatalf("lasso kept noise features: %v", m.Coef)
	}
	if m.Iterations <= 0 {
		t.Fatal("iterations not recorded")
	}
}

func TestLassoZeroAlphaMatchesOLS(t *testing.T) {
	X, y := linearData(200, 0, 6)
	m := Lasso{Alpha: 0, MaxIter: 5000, Tol: 1e-10}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coef[0]-3) > 1e-3 || math.Abs(m.Coef[1]+2) > 1e-3 {
		t.Fatalf("alpha=0 coef = %v", m.Coef)
	}
}

func TestLassoConstantFeature(t *testing.T) {
	X := [][]float64{{1, 7}, {2, 7}, {3, 7}, {4, 7}}
	y := []float64{2, 4, 6, 8}
	m := Lasso{Alpha: 0.01}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if m.Coef[1] != 0 {
		t.Fatalf("constant feature got weight %v", m.Coef[1])
	}
	pred, err := m.Predict(X)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := metrics.MSE(y, pred)
	if mse > 0.1 {
		t.Fatalf("mse = %v", mse)
	}
}

func TestSoftThreshold(t *testing.T) {
	cases := []struct{ x, lam, want float64 }{
		{5, 2, 3}, {-5, 2, -3}, {1, 2, 0}, {-1, 2, 0}, {2, 2, 0},
	}
	for _, c := range cases {
		if got := softThreshold(c.x, c.lam); got != c.want {
			t.Errorf("softThreshold(%v,%v) = %v, want %v", c.x, c.lam, got, c.want)
		}
	}
}
