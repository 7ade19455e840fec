// Package modelsel implements the model-selection machinery of the
// paper's training workflow: train/test splitting, and selecting the
// best fit by validation MSE (the role of the paper's "ModelSelection"
// collector entity).
package modelsel

import (
	"fmt"

	"statebench/internal/sim"
)

// Split divides (X, y) into train/test with the given test fraction,
// shuffled deterministically by seed.
func Split(X [][]float64, y []float64, testFrac float64, seed uint64) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64, err error) {
	if len(X) != len(y) || len(X) == 0 {
		return nil, nil, nil, nil, fmt.Errorf("modelsel: bad shapes %d/%d", len(X), len(y))
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, nil, nil, fmt.Errorf("modelsel: testFrac %v out of (0,1)", testFrac)
	}
	perm := sim.NewRNG(seed).Perm(len(X))
	nTest := int(float64(len(X)) * testFrac)
	if nTest == 0 {
		nTest = 1
	}
	for i, p := range perm {
		if i < nTest {
			testX = append(testX, X[p])
			testY = append(testY, y[p])
		} else {
			trainX = append(trainX, X[p])
			trainY = append(trainY, y[p])
		}
	}
	return trainX, trainY, testX, testY, nil
}

// BestFit is the accumulator the paper implements as the
// "ModelSelection" entity: it keeps the lowest-error model reported so
// far.
type BestFit struct {
	Name string
	MSE  float64
	set  bool
}

// Report offers a candidate; it is kept only if it beats the current
// best. Returns true if it became the new best.
func (b *BestFit) Report(name string, mse float64) bool {
	if !b.set || mse < b.MSE {
		b.Name = name
		b.MSE = mse
		b.set = true
		return true
	}
	return false
}
