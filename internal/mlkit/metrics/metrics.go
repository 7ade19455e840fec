// Package metrics provides the regression quality measure used by the
// model-selection step: MSE.
package metrics

import (
	"fmt"
)

func check(yTrue, yPred []float64) error {
	if len(yTrue) != len(yPred) {
		return fmt.Errorf("metrics: length mismatch %d vs %d", len(yTrue), len(yPred))
	}
	if len(yTrue) == 0 {
		return fmt.Errorf("metrics: empty inputs")
	}
	return nil
}

// MSE returns the mean squared error.
func MSE(yTrue, yPred []float64) (float64, error) {
	if err := check(yTrue, yPred); err != nil {
		return 0, err
	}
	var s float64
	for i := range yTrue {
		d := yTrue[i] - yPred[i]
		s += d * d
	}
	return s / float64(len(yTrue)), nil
}
