package ensemble

import (
	"fmt"
	"sync/atomic"

	"statebench/internal/parallel"
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

// Fit trains the ensemble. Every tree's bootstrap sample is drawn from
// the forest's one stream, in tree order, before any tree grows; the
// trees then grow on parallel.Workers(0) goroutines, each reusing one
// grower, and land in their own index slots. A tree that subsamples
// features draws them from a stream of its own (treeStream), so the
// forest is the same at every worker count.
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
	src := make([]int32, m.NumTrees*n)
	for i := range src {
		src[i] = int32(rng.Intn(n))
	}
	// One presort serves every tree: each bootstrap sample's sorted rows
	// are derived from it. X, y, pre and src are only read from here on.
	pre := presort(X)
	m.Trees = make([]*RegressionTree, m.NumTrees)
	w := min(parallel.Workers(0), m.NumTrees)
	var next atomic.Int64
	return parallel.ForEach(w, w, func(int) error {
		// Each worker takes the next tree until none is left, on one
		// grower: a fitted tree keeps only its nodes, so the next tree
		// can overwrite the rest.
		g := newGrower(n, d)
		for t := int(next.Add(1)) - 1; t < m.NumTrees; t = int(next.Add(1)) - 1 {
			g.load(X, y, src[t*n:(t+1)*n], pre)
			r := treeStream(m.Seed, t)
			tree := &RegressionTree{
				MaxDepth:       m.MaxDepth,
				MinSamplesLeaf: m.MinSamplesLeaf,
				MaxFeatures:    maxFeat,
				rng:            func(k int) int { return r.Intn(k) },
			}
			tree.fit(g)
			m.Trees[t] = tree
		}
		return nil
	})
}

// treeStream is tree t's feature-subsampling stream, derived from the
// forest's seed and the tree's index alone.
func treeStream(seed uint64, t int) *sim.RNG {
	return sim.NewRNG((seed ^ 0x9e3779b97f4a7c15) + uint64(t+1)*0xbf58476d1ce4e5b9)
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
