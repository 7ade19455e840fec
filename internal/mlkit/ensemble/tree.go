// Package ensemble implements CART regression trees and a random
// forest regressor — the heavyweight model in the paper's selection
// search (sklearn's RandomForestRegressor analogue), trained via
// bootstrap bagging with per-split feature subsampling.
//
// Split search is presorted: each fit sorts every feature's rows once,
// and each node keeps them as sorted segments that a stable partition
// splits after each decision, so no node sorts. The split scan visits a
// node's rows in (value, source row) order, which a per-node sort by
// value alone matches up to the order of equal values. Bootstrap copies
// of one row agree on the target too, so the trees are bit-identical to
// a per-node sort's whenever distinct rows that tie on a feature value
// also tie on the target.
package ensemble

import (
	"fmt"
	"math"
	"slices"
)

// treeNode is one node of a regression tree, stored in a flat slice so
// trees gob-encode compactly (model sizes matter to the workloads).
type treeNode struct {
	// Feature < 0 marks a leaf.
	Feature   int
	Threshold float64
	Left      int
	Right     int
	Value     float64
}

// RegressionTree is a CART tree minimizing squared error.
type RegressionTree struct {
	// MaxDepth bounds tree depth (0 = unlimited).
	MaxDepth int
	// MinSamplesLeaf is the minimum rows per leaf (default 1).
	MinSamplesLeaf int
	// MaxFeatures limits features considered per split (0 = all);
	// the forest sets this for decorrelation.
	MaxFeatures int

	Nodes []treeNode
	// NumFeatures is the training feature count, checked at predict.
	NumFeatures int

	// rng returns pseudo-random ints for feature subsampling; injected
	// by the forest for determinism. Nil means deterministic order.
	rng func(n int) int
}

// grower is one fit's training view, indexed by row position. The
// forest reuses one across its trees.
type grower struct {
	n, d int
	// x[f*n+i] is feature f of row i; y[i] is row i's target.
	x, y []float64
	// sorted[f*n+lo : f*n+hi] holds a node's rows ordered by
	// (x[f], source row); order[lo:hi] holds them ascending, the
	// summation order of the node mean.
	sorted, order []int32
	// goLeft[i] is row i's side of the split being applied.
	goLeft []bool
	// Scratch: the right half of a stable partition, the shuffled
	// feature order, and the counting sort by source row.
	spill       []int32
	feats       []int
	byRow       []int32
	start, next []int32
}

func newGrower(n, d int) *grower {
	return &grower{
		n: n, d: d,
		x: make([]float64, n*d), y: make([]float64, n),
		sorted: make([]int32, n*d), order: make([]int32, n),
		goLeft: make([]bool, n), spill: make([]int32, 0, n), feats: make([]int, d),
		byRow: make([]int32, n), start: make([]int32, n+1), next: make([]int32, n),
	}
}

// presort returns, for each feature f of X, the rows of X ordered by
// (X[row][f], row) in pre[f*n : (f+1)*n].
func presort(X [][]float64) []int32 {
	n, d := len(X), len(X[0])
	pre := make([]int32, n*d)
	for f := 0; f < d; f++ {
		rows := pre[f*n : (f+1)*n]
		for i := range rows {
			rows[i] = int32(i)
		}
		slices.SortFunc(rows, func(a, b int32) int {
			xa, xb := X[a][f], X[b][f]
			switch {
			case xa < xb:
				return -1
			case xa > xb:
				return 1
			}
			return int(a - b)
		})
	}
	return pre
}

// load points g at the sample whose row i is source row src[i] of X, y,
// deriving every feature's sorted rows from pre (see presort) by a
// counting pass instead of a sort: copies of one source row sit
// together, in ascending position.
func (g *grower) load(X [][]float64, y []float64, src, pre []int32) {
	n := g.n
	clear(g.start)
	for _, j := range src {
		g.start[j+1]++
	}
	for j := 0; j < n; j++ {
		g.start[j+1] += g.start[j]
	}
	copy(g.next, g.start[:n])
	for i, j := range src {
		g.byRow[g.next[j]] = int32(i)
		g.next[j]++
		g.y[i] = y[j]
		g.order[i] = int32(i)
	}
	for f := 0; f < g.d; f++ {
		xf := g.x[f*n : (f+1)*n]
		for i, j := range src {
			xf[i] = X[j][f]
		}
		rows := g.sorted[f*n : (f+1)*n]
		k := 0
		for _, j := range pre[f*n : (f+1)*n] {
			k += copy(rows[k:], g.byRow[g.start[j]:g.start[j+1]])
		}
	}
}

// Fit grows the tree on X, y.
func (t *RegressionTree) Fit(X [][]float64, y []float64) error {
	if len(X) == 0 || len(X) != len(y) {
		return fmt.Errorf("ensemble: bad training shapes %d/%d", len(X), len(y))
	}
	src := make([]int32, len(X))
	for i := range src {
		src[i] = int32(i)
	}
	g := newGrower(len(X), len(X[0]))
	g.load(X, y, src, presort(X))
	t.fit(g)
	return nil
}

// fit grows the tree on g's loaded sample.
func (t *RegressionTree) fit(g *grower) {
	if t.MinSamplesLeaf <= 0 {
		t.MinSamplesLeaf = 1
	}
	t.NumFeatures = g.d
	t.Nodes = t.Nodes[:0]
	t.grow(g, 0, g.n, 0)
}

// grow recursively builds the subtree over the rows in [lo, hi) of g's
// segments, returning its node index.
func (t *RegressionTree) grow(g *grower, lo, hi, depth int) int {
	idx := g.order[lo:hi]
	mean := meanOf(g.y, idx)
	node := treeNode{Feature: -1, Value: mean}
	self := len(t.Nodes)
	t.Nodes = append(t.Nodes, node)

	if len(idx) < 2*t.MinSamplesLeaf || (t.MaxDepth > 0 && depth >= t.MaxDepth) || pure(g.y, idx) {
		return self
	}

	feat, thr, ok := t.bestSplit(g, lo, hi)
	if !ok {
		return self
	}
	xf := g.x[feat*g.n : (feat+1)*g.n]
	nl := 0
	for _, i := range idx {
		g.goLeft[i] = xf[i] <= thr
		if g.goLeft[i] {
			nl++
		}
	}
	if nl < t.MinSamplesLeaf || len(idx)-nl < t.MinSamplesLeaf {
		return self
	}
	g.partition(idx)
	for f := 0; f < g.d; f++ {
		g.partition(g.sorted[f*g.n+lo : f*g.n+hi])
	}
	l := t.grow(g, lo, lo+nl, depth+1)
	r := t.grow(g, lo+nl, hi, depth+1)
	t.Nodes[self].Feature = feat
	t.Nodes[self].Threshold = thr
	t.Nodes[self].Left = l
	t.Nodes[self].Right = r
	return self
}

// partition stably reorders rows into [left | right] by goLeft.
func (g *grower) partition(rows []int32) {
	right := g.spill[:0]
	nl := 0
	for _, i := range rows {
		if g.goLeft[i] {
			rows[nl] = i
			nl++
		} else {
			right = append(right, i)
		}
	}
	copy(rows[nl:], right)
}

// bestSplit finds the (feature, threshold) minimizing weighted child
// variance over a feature subsample of the rows in [lo, hi).
func (t *RegressionTree) bestSplit(g *grower, lo, hi int) (int, float64, bool) {
	d := g.d
	feats := g.feats[:d]
	for i := range feats {
		feats[i] = i
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < d {
		if t.rng != nil {
			for i := d - 1; i > 0; i-- {
				j := t.rng(i + 1)
				feats[i], feats[j] = feats[j], feats[i]
			}
		}
		feats = feats[:t.MaxFeatures]
	}

	bestScore := math.Inf(1)
	bestFeat, bestThr := -1, 0.0

	n := hi - lo
	for _, f := range feats {
		rows := g.sorted[f*g.n+lo : f*g.n+hi]
		xf := g.x[f*g.n : (f+1)*g.n]

		// Prefix sums for O(n) split scan.
		var totSum, totSq float64
		for _, i := range rows {
			totSum += g.y[i]
			totSq += g.y[i] * g.y[i]
		}
		var lSum, lSq float64
		for i := 0; i < n-1; i++ {
			yi := g.y[rows[i]]
			lSum += yi
			lSq += yi * yi
			x0, x1 := xf[rows[i]], xf[rows[i+1]]
			if x0 == x1 {
				continue
			}
			nl, nr := float64(i+1), float64(n-i-1)
			if int(nl) < t.MinSamplesLeaf || int(nr) < t.MinSamplesLeaf {
				continue
			}
			rSum, rSq := totSum-lSum, totSq-lSq
			score := (lSq - lSum*lSum/nl) + (rSq - rSum*rSum/nr)
			if score < bestScore {
				bestScore = score
				bestFeat = f
				bestThr = (x0 + x1) / 2
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0
}

// Predict evaluates the tree for each row.
func (t *RegressionTree) Predict(X [][]float64) ([]float64, error) {
	out := make([]float64, len(X))
	if err := t.predictInto(X, out); err != nil {
		return nil, err
	}
	return out, nil
}

// predictInto evaluates the tree into a caller-provided slice, letting
// the forest reuse one buffer across its trees.
func (t *RegressionTree) predictInto(X [][]float64, out []float64) error {
	if len(t.Nodes) == 0 {
		return fmt.Errorf("ensemble: tree not fitted")
	}
	for i, row := range X {
		if len(row) != t.NumFeatures {
			return fmt.Errorf("ensemble: row has %d features, tree fitted on %d", len(row), t.NumFeatures)
		}
		n := 0
		for t.Nodes[n].Feature >= 0 {
			f := t.Nodes[n].Feature
			if row[f] <= t.Nodes[n].Threshold {
				n = t.Nodes[n].Left
			} else {
				n = t.Nodes[n].Right
			}
		}
		out[i] = t.Nodes[n].Value
	}
	return nil
}

func meanOf(y []float64, idx []int32) float64 {
	var s float64
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func pure(y []float64, idx []int32) bool {
	first := y[idx[0]]
	for _, i := range idx[1:] {
		if y[i] != first {
			return false
		}
	}
	return true
}
