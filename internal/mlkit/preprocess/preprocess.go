// Package preprocess implements the feature-engineering stages of the
// paper's ML pipeline: one-hot encoding of categorical columns and
// standard scaling of numeric columns, with gob-serializable fitted
// state so the fitted transformers can live in durable entities or blob
// storage like the paper's "Encoding" and "Scalar" entities.
package preprocess

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"sort"

	"statebench/internal/mlkit/dataframe"
)

// OneHotEncoder maps categorical columns to 0/1 indicator features.
type OneHotEncoder struct {
	// Vocab maps column name -> sorted category list seen at fit time.
	Vocab map[string][]string
	// Cols preserves the categorical column order.
	Cols []string
}

// FitOneHot learns the categorical vocabulary of df.
func FitOneHot(df *dataframe.DataFrame) *OneHotEncoder {
	enc := &OneHotEncoder{Vocab: make(map[string][]string)}
	for _, name := range df.CategoricalNames() {
		col, _ := df.Column(name)
		set := make(map[string]bool)
		for _, v := range col.Cats {
			set[v] = true
		}
		vocab := make([]string, 0, len(set))
		for v := range set {
			vocab = append(vocab, v)
		}
		sort.Strings(vocab)
		enc.Vocab[name] = vocab
		enc.Cols = append(enc.Cols, name)
	}
	return enc
}

// Transform replaces each categorical column with indicator columns
// (unknown categories encode to all zeros) and keeps numeric columns.
func (e *OneHotEncoder) Transform(df *dataframe.DataFrame) (*dataframe.DataFrame, error) {
	out := dataframe.New()
	rows := df.NumRows()
	// All indicator columns share one flat backing array: identical
	// values, one allocation for the whole encoded block.
	total := 0
	for _, name := range e.Cols {
		total += len(e.Vocab[name])
	}
	backing := make([]float64, rows*total)
	next := 0
	for _, name := range e.Cols {
		col, ok := df.Column(name)
		if !ok || col.Type != dataframe.Categorical {
			return nil, fmt.Errorf("preprocess: frame missing categorical column %q", name)
		}
		for _, cat := range e.Vocab[name] {
			ind := backing[next*rows : (next+1)*rows : (next+1)*rows]
			next++
			for i, v := range col.Cats {
				if v == cat {
					ind[i] = 1
				}
			}
			if err := out.AddNumeric(name+"="+cat, ind); err != nil {
				return nil, err
			}
		}
	}
	for _, name := range df.NumericNames() {
		col, _ := df.Column(name)
		if err := out.AddNumeric(name, append([]float64(nil), col.Nums...)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// StandardScaler standardizes each column to zero mean, unit variance.
type StandardScaler struct {
	Mean []float64
	Std  []float64
}

// FitStandard learns per-column mean/std of a numeric matrix.
func FitStandard(X [][]float64) *StandardScaler {
	if len(X) == 0 {
		return &StandardScaler{}
	}
	cols := len(X[0])
	s := &StandardScaler{Mean: make([]float64, cols), Std: make([]float64, cols)}
	for j := 0; j < cols; j++ {
		var sum float64
		for i := range X {
			sum += X[i][j]
		}
		mean := sum / float64(len(X))
		var sq float64
		for i := range X {
			d := X[i][j] - mean
			sq += d * d
		}
		std := sq / float64(len(X))
		s.Mean[j] = mean
		s.Std[j] = sqrt(std)
		if s.Std[j] == 0 {
			s.Std[j] = 1
		}
	}
	return s
}

// Transform returns the standardized copy of X.
func (s *StandardScaler) Transform(X [][]float64) ([][]float64, error) {
	out := make([][]float64, len(X))
	cols := len(s.Mean)
	// Flat backing array: identical values, two allocations total.
	backing := make([]float64, len(X)*cols)
	for i := range X {
		if len(X[i]) != cols {
			return nil, fmt.Errorf("preprocess: row has %d features, scaler fitted on %d", len(X[i]), cols)
		}
		out[i] = backing[i*cols : (i+1)*cols : (i+1)*cols]
		for j := range X[i] {
			out[i][j] = (X[i][j] - s.Mean[j]) / s.Std[j]
		}
	}
	return out, nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Encode serializes any gob-able fitted transformer so its size can be
// measured against payload limits (the paper ships these objects
// between functions).
func Encode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
