// Package linmodel implements Lasso regression from scratch, via
// cyclic coordinate descent — the paper's model-selection search
// includes Lasso.
package linmodel

import (
	"fmt"
	"math"
)

// Regressor is the common contract of mlkit models (also implemented by
// neighbors and ensemble).
type Regressor interface {
	Fit(X [][]float64, y []float64) error
	Predict(X [][]float64) ([]float64, error)
}

func validate(X [][]float64, y []float64) (features int, err error) {
	if len(X) == 0 || len(y) == 0 {
		return 0, fmt.Errorf("linmodel: empty training data")
	}
	if len(X) != len(y) {
		return 0, fmt.Errorf("linmodel: %d rows vs %d targets", len(X), len(y))
	}
	d := len(X[0])
	for i := range X {
		if len(X[i]) != d {
			return 0, fmt.Errorf("linmodel: ragged matrix at row %d", i)
		}
	}
	if d == 0 {
		return 0, fmt.Errorf("linmodel: zero features")
	}
	return d, nil
}

func predictLinear(coef []float64, intercept float64, X [][]float64) ([]float64, error) {
	if coef == nil {
		return nil, fmt.Errorf("linmodel: model not fitted")
	}
	out := make([]float64, len(X))
	for i, row := range X {
		if len(row) != len(coef) {
			return nil, fmt.Errorf("linmodel: row has %d features, model has %d", len(row), len(coef))
		}
		s := intercept
		for j, v := range row {
			s += coef[j] * v
		}
		out[i] = s
	}
	return out, nil
}

// Lasso is L1-regularized least squares fitted by cyclic coordinate
// descent with soft thresholding.
type Lasso struct {
	// Alpha is the L1 penalty weight.
	Alpha float64
	// MaxIter bounds coordinate-descent sweeps (default 1000).
	MaxIter int
	// Tol is the convergence threshold on max coefficient change
	// (default 1e-6).
	Tol float64

	Coef      []float64
	Intercept float64
	// Iterations actually used (for cost modeling).
	Iterations int
}

// Fit runs coordinate descent on centered data.
func (m *Lasso) Fit(X [][]float64, y []float64) error {
	d, err := validate(X, y)
	if err != nil {
		return err
	}
	if m.MaxIter <= 0 {
		m.MaxIter = 1000
	}
	if m.Tol <= 0 {
		m.Tol = 1e-6
	}
	n := len(X)

	xMean := make([]float64, d)
	for i := range X {
		for j, v := range X[i] {
			xMean[j] += v
		}
	}
	for j := range xMean {
		xMean[j] /= float64(n)
	}
	var yMean float64
	for _, v := range y {
		yMean += v
	}
	yMean /= float64(n)

	xc := make([][]float64, n)
	yc := make([]float64, n)
	colSq := make([]float64, d)
	for i := range X {
		xc[i] = make([]float64, d)
		for j := range X[i] {
			v := X[i][j] - xMean[j]
			xc[i][j] = v
			colSq[j] += v * v
		}
		yc[i] = y[i] - yMean
	}

	w := make([]float64, d)
	resid := append([]float64(nil), yc...)
	lam := m.Alpha * float64(n)

	var iter int
	for iter = 0; iter < m.MaxIter; iter++ {
		maxDelta := 0.0
		for j := 0; j < d; j++ {
			if colSq[j] == 0 {
				continue
			}
			// rho = x_j · (resid + w_j x_j)
			rho := 0.0
			for i := 0; i < n; i++ {
				rho += xc[i][j] * resid[i]
			}
			rho += w[j] * colSq[j]
			newW := softThreshold(rho, lam) / colSq[j]
			delta := newW - w[j]
			if delta != 0 {
				for i := 0; i < n; i++ {
					resid[i] -= delta * xc[i][j]
				}
				w[j] = newW
			}
			if math.Abs(delta) > maxDelta {
				maxDelta = math.Abs(delta)
			}
		}
		if maxDelta < m.Tol {
			break
		}
	}
	m.Iterations = iter + 1
	m.Coef = w
	m.Intercept = yMean
	for j := 0; j < d; j++ {
		m.Intercept -= w[j] * xMean[j]
	}
	return nil
}

// Predict returns Xw + b.
func (m *Lasso) Predict(X [][]float64) ([]float64, error) {
	return predictLinear(m.Coef, m.Intercept, X)
}

func softThreshold(x, lam float64) float64 {
	switch {
	case x > lam:
		return x - lam
	case x < -lam:
		return x + lam
	default:
		return 0
	}
}
