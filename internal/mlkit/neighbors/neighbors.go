// Package neighbors implements the k-nearest-neighbors regressor the
// paper's model-selection step searches over (sklearn's
// KNeighborsRegressor analogue), with uniform and inverse-distance
// weighting.
package neighbors

import (
	"fmt"
	"math"
)

// Weighting selects how neighbor targets are combined.
type Weighting int

// Weightings.
const (
	Uniform Weighting = iota
	Distance
)

// KNeighborsRegressor predicts the (weighted) mean target of the K
// nearest training rows by Euclidean distance.
type KNeighborsRegressor struct {
	K       int
	Weights Weighting

	// XTrain and YTrain are the memorized training set (exported so
	// fitted models gob-serialize with their real size).
	XTrain [][]float64
	YTrain []float64
}

// Fit memorizes the training set.
func (m *KNeighborsRegressor) Fit(X [][]float64, y []float64) error {
	if m.K <= 0 {
		return fmt.Errorf("neighbors: K must be positive, got %d", m.K)
	}
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("neighbors: bad training shapes %d/%d", len(X), len(y))
	}
	if m.K > len(X) {
		return fmt.Errorf("neighbors: K=%d exceeds %d training rows", m.K, len(X))
	}
	d := len(X[0])
	m.XTrain = make([][]float64, len(X))
	// One flat backing array for the memorized rows: same values (and
	// the same gob encoding), two allocations instead of len(X)+1.
	backing := make([]float64, len(X)*d)
	for i := range X {
		if len(X[i]) != d {
			return fmt.Errorf("neighbors: ragged matrix at row %d", i)
		}
		row := backing[i*d : (i+1)*d : (i+1)*d]
		copy(row, X[i])
		m.XTrain[i] = row
	}
	m.YTrain = append([]float64(nil), y...)
	return nil
}

// Predict returns the KNN estimate for each query row.
func (m *KNeighborsRegressor) Predict(X [][]float64) ([]float64, error) {
	if m.XTrain == nil {
		return nil, fmt.Errorf("neighbors: model not fitted")
	}
	out := make([]float64, len(X))
	// top holds the K nearest rows seen so far in (distance, row) order,
	// the order a full sort of every candidate would give them whenever
	// rows at equal distances carry equal targets.
	type neighbor struct {
		dist float64
		row  int
	}
	top := make([]neighbor, 0, m.K)
	for qi, q := range X {
		if len(q) != len(m.XTrain[0]) {
			return nil, fmt.Errorf("neighbors: query has %d features, model has %d", len(q), len(m.XTrain[0]))
		}
		top = top[:0]
		for i, row := range m.XTrain {
			var s float64
			for j := range row {
				d := row[j] - q[j]
				s += d * d
			}
			dist := math.Sqrt(s)
			if len(top) == m.K {
				// A tie with the K-th loses: its row comes later.
				if dist >= top[m.K-1].dist {
					continue
				}
				top = top[:m.K-1]
			}
			k := len(top)
			top = append(top, neighbor{})
			for k > 0 && top[k-1].dist > dist {
				top[k] = top[k-1]
				k--
			}
			top[k] = neighbor{dist: dist, row: i}
		}
		switch m.Weights {
		case Distance:
			var num, den float64
			exact := false
			for _, c := range top {
				if c.dist == 0 {
					// Exact match dominates (sklearn semantics).
					out[qi] = m.YTrain[c.row]
					exact = true
					break
				}
				w := 1 / c.dist
				num += w * m.YTrain[c.row]
				den += w
			}
			if !exact {
				out[qi] = num / den
			}
		default:
			var s float64
			for _, c := range top {
				s += m.YTrain[c.row]
			}
			out[qi] = s / float64(m.K)
		}
	}
	return out, nil
}
