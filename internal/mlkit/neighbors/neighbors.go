// Package neighbors implements the k-nearest-neighbors regressor the
// paper's model-selection step searches over (sklearn's
// KNeighborsRegressor analogue), with uniform and inverse-distance
// weighting.
package neighbors

import (
	"fmt"
	"math"

	"statebench/internal/parallel"
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

// Fit memorizes the training set. Like sklearn, it rejects NaN and
// infinite feature values: Predict's pruning is exact only for finite
// distances.
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
	for i, row := range X {
		if len(row) != d {
			return fmt.Errorf("neighbors: ragged matrix at row %d", i)
		}
		if err := checkFinite("training row", i, row); err != nil {
			return err
		}
	}
	m.XTrain = make([][]float64, len(X))
	// One flat backing array for the memorized rows: same values (and
	// the same gob encoding), two allocations instead of len(X)+1.
	backing := make([]float64, len(X)*d)
	for i := range X {
		row := backing[i*d : (i+1)*d : (i+1)*d]
		copy(row, X[i])
		m.XTrain[i] = row
	}
	m.YTrain = append([]float64(nil), y...)
	return nil
}

// checkFinite rejects a row holding NaN or an infinity.
func checkFinite(what string, i int, row []float64) error {
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("neighbors: %s %d has non-finite feature %d (%v)", what, i, j, v)
		}
	}
	return nil
}

// chunkQueries is how many contiguous queries one task of Predict
// scores: enough to outweigh handing a chunk to a goroutine, few enough
// that a slow chunk cannot hold up the rest for long.
const chunkQueries = 64

// Predict returns the KNN estimate for each query row. Queries must be
// finite, as training rows are. Every query is checked before any is
// scored, so the error is the first bad query's; contiguous chunks of
// queries are then scored on parallel.Workers(0) goroutines, each into
// its own slots of the result.
func (m *KNeighborsRegressor) Predict(X [][]float64) ([]float64, error) {
	if m.XTrain == nil {
		return nil, fmt.Errorf("neighbors: model not fitted")
	}
	for qi, q := range X {
		if len(q) != len(m.XTrain[0]) {
			return nil, fmt.Errorf("neighbors: query has %d features, model has %d", len(q), len(m.XTrain[0]))
		}
		if err := checkFinite("query", qi, q); err != nil {
			return nil, err
		}
	}
	out := make([]float64, len(X))
	chunks := (len(X) + chunkQueries - 1) / chunkQueries
	err := parallel.ForEach(0, chunks, func(c int) error {
		lo := c * chunkQueries
		hi := min(lo+chunkQueries, len(X))
		m.predictChunk(X[lo:hi], out[lo:hi])
		return nil
	})
	return out, err
}

// neighbor is one held candidate of a query: its distance, the squared
// sum dist is the root of, and its training row.
type neighbor struct {
	dist, sq float64
	row      int
}

// predictChunk writes the estimate for each checked query of X to out.
func (m *KNeighborsRegressor) predictChunk(X [][]float64, out []float64) {
	// top holds the K nearest rows seen so far in (distance, row) order,
	// the order a full sort of every candidate would give them whenever
	// rows at equal distances carry equal targets.
	top := make([]neighbor, 0, m.K)
	for qi, q := range X {
		top = top[:0]
		// bound is the K-th nearest row's squared sum once K rows are
		// held, and NaN before: no sum compares >= NaN. A row stops
		// summing once its partial sum reaches bound. That is exact:
		// adding a non-negative term never lowers a sum, and Sqrt is
		// monotone, so the row's distance would reach top[K-1].dist,
		// and a tie with the K-th loses. Rows that are kept are summed
		// whole, in feature order, so their distances keep every bit.
		bound := math.NaN()
	rows:
		for i, row := range m.XTrain {
			var s float64
			j := 0
			// Check after every four features, summed in order:
			// checking after each one was no faster.
			for ; j+4 <= len(row); j += 4 {
				r, qq := row[j:j+4:j+4], q[j:j+4:j+4]
				d0, d1, d2, d3 := r[0]-qq[0], r[1]-qq[1], r[2]-qq[2], r[3]-qq[3]
				s += d0 * d0
				s += d1 * d1
				s += d2 * d2
				s += d3 * d3
				if s >= bound {
					continue rows
				}
			}
			for ; j < len(row); j++ {
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
			top[k] = neighbor{dist: dist, sq: s, row: i}
			if len(top) == m.K {
				bound = top[m.K-1].sq
			}
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
}
