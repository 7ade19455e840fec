package ensemble

import (
	"fmt"

	"statebench/internal/sim"
)

// RandomForestRegressor averages bootstrap-bagged regression trees with
// per-split feature subsampling.
type RandomForestRegressor struct {
	// NumTrees is the ensemble size (default 10, sklearn's old default).
	NumTrees int
	// MaxDepth bounds each tree (0 = unlimited).
	MaxDepth int
	// MinSamplesLeaf is per-tree (default 1).
	MinSamplesLeaf int
	// MaxFeatures per split; 0 means all features (sklearn's
	// regression default — pure bagging).
	MaxFeatures int
	// Seed makes training deterministic.
	Seed uint64

	Trees []*RegressionTree
}

// Fit trains the ensemble.
func (m *RandomForestRegressor) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("ensemble: bad training shapes %d/%d", len(X), len(y))
	}
	if m.NumTrees <= 0 {
		m.NumTrees = 10
	}
	d := len(X[0])
	maxFeat := m.MaxFeatures
	if maxFeat <= 0 || maxFeat > d {
		maxFeat = d
	}
	rng := sim.NewRNG(m.Seed ^ 0x9e3779b97f4a7c15)
	n := len(X)
	m.Trees = m.Trees[:0]
	// One presort and one grower serve every tree: each bootstrap
	// sample's sorted rows are derived from the presort, and a fitted
	// tree keeps only its nodes, so the next tree can overwrite the rest.
	pre := presort(X)
	g := newGrower(n, d)
	src := make([]int32, n)
	pick := func(k int) int { return rng.Intn(k) }
	for t := 0; t < m.NumTrees; t++ {
		for i := range src {
			src[i] = int32(rng.Intn(n))
		}
		g.load(X, y, src, pre)
		tree := &RegressionTree{
			MaxDepth:       m.MaxDepth,
			MinSamplesLeaf: m.MinSamplesLeaf,
			MaxFeatures:    maxFeat,
			rng:            pick,
		}
		tree.fit(g)
		m.Trees = append(m.Trees, tree)
	}
	return nil
}

// Predict averages the trees' predictions.
func (m *RandomForestRegressor) Predict(X [][]float64) ([]float64, error) {
	if len(m.Trees) == 0 {
		return nil, fmt.Errorf("ensemble: forest not fitted")
	}
	out := make([]float64, len(X))
	p := make([]float64, len(X))
	for _, tree := range m.Trees {
		if err := tree.predictInto(X, p); err != nil {
			return nil, err
		}
		for i, v := range p {
			out[i] += v
		}
	}
	inv := 1 / float64(len(m.Trees))
	for i := range out {
		out[i] *= inv
	}
	return out, nil
}
