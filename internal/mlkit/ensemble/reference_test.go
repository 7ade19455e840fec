package ensemble

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"statebench/internal/sim"
)

// refFit and refForestFit grow trees with a per-node sort: every node
// copies its rows' (value, target) pairs per feature and sorts them.
// The tests below check that the presorted search builds the same trees.

type refPair struct{ x, y float64 }

// refFit is RegressionTree.Fit with a per-node sort.
func refFit(t *RegressionTree, X [][]float64, y []float64) {
	if t.MinSamplesLeaf <= 0 {
		t.MinSamplesLeaf = 1
	}
	t.NumFeatures = len(X[0])
	idx := make([]int, len(X))
	for i := range idx {
		idx[i] = i
	}
	t.Nodes = t.Nodes[:0]
	refGrow(t, X, y, idx, 0)
}

func refGrow(t *RegressionTree, X [][]float64, y []float64, idx []int, depth int) int {
	var s float64
	isPure := true
	for _, i := range idx {
		s += y[i]
		isPure = isPure && y[i] == y[idx[0]]
	}
	self := len(t.Nodes)
	t.Nodes = append(t.Nodes, treeNode{Feature: -1, Value: s / float64(len(idx))})
	if len(idx) < 2*t.MinSamplesLeaf || (t.MaxDepth > 0 && depth >= t.MaxDepth) || isPure {
		return self
	}
	feat, thr, ok := refBestSplit(t, X, y, idx)
	if !ok {
		return self
	}
	var left, right []int
	for _, i := range idx {
		if X[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < t.MinSamplesLeaf || len(right) < t.MinSamplesLeaf {
		return self
	}
	l := refGrow(t, X, y, left, depth+1)
	r := refGrow(t, X, y, right, depth+1)
	t.Nodes[self].Feature, t.Nodes[self].Threshold = feat, thr
	t.Nodes[self].Left, t.Nodes[self].Right = l, r
	return self
}

func refBestSplit(t *RegressionTree, X [][]float64, y []float64, idx []int) (int, float64, bool) {
	d := len(X[0])
	feats := make([]int, d)
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
	vals := make([]refPair, len(idx))
	for _, f := range feats {
		for i, row := range idx {
			vals[i] = refPair{x: X[row][f], y: y[row]}
		}
		slices.SortFunc(vals, func(a, b refPair) int {
			switch {
			case a.x < b.x:
				return -1
			case a.x > b.x:
				return 1
			default:
				return 0
			}
		})
		n := len(vals)
		var totSum, totSq float64
		for _, v := range vals {
			totSum += v.y
			totSq += v.y * v.y
		}
		var lSum, lSq float64
		for i := 0; i < n-1; i++ {
			lSum += vals[i].y
			lSq += vals[i].y * vals[i].y
			if vals[i].x == vals[i+1].x {
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
				bestThr = (vals[i].x + vals[i+1].x) / 2
			}
		}
	}
	return bestFeat, bestThr, bestFeat >= 0
}

// refForestFit is RandomForestRegressor.Fit with per-tree bootstrap
// copies and per-node sorts.
func refForestFit(m *RandomForestRegressor, X [][]float64, y []float64) {
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
	bx := make([][]float64, n)
	by := make([]float64, n)
	pick := func(k int) int { return rng.Intn(k) }
	m.Trees = nil
	for t := 0; t < m.NumTrees; t++ {
		for i := 0; i < n; i++ {
			j := rng.Intn(n)
			bx[i] = X[j]
			by[i] = y[j]
		}
		tree := &RegressionTree{MaxDepth: m.MaxDepth, MinSamplesLeaf: m.MinSamplesLeaf, MaxFeatures: maxFeat, rng: pick}
		refFit(tree, bx, by)
		m.Trees = append(m.Trees, tree)
	}
}

// continuousData draws n rows of d uniform features (no two rows tie on
// a feature) with a nonlinear target.
func continuousData(n, d int, seed uint64) ([][]float64, []float64) {
	r := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for f := range X[i] {
			X[i][f] = r.Uniform(-5, 5)
		}
		y[i] = math.Sin(X[i][0])*3 + X[i][d-1]*X[i][d-1] + r.Uniform(0, 0.5)
	}
	return X, y
}

// sameTree fails unless got and want have the same nodes bit for bit.
func sameTree(t *testing.T, label string, got, want *RegressionTree) {
	t.Helper()
	if got.NumFeatures != want.NumFeatures || got.MinSamplesLeaf != want.MinSamplesLeaf {
		t.Fatalf("%s: NumFeatures/MinSamplesLeaf %d/%d, want %d/%d", label,
			got.NumFeatures, got.MinSamplesLeaf, want.NumFeatures, want.MinSamplesLeaf)
	}
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d nodes, want %d", label, len(got.Nodes), len(want.Nodes))
	}
	for i, g := range got.Nodes {
		w := want.Nodes[i]
		if g.Feature != w.Feature || g.Left != w.Left || g.Right != w.Right ||
			math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) ||
			math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("%s: node %d = %+v, want %+v", label, i, g, w)
		}
	}
}

// seededPick is a feature-shuffle source for a standalone tree.
func seededPick(seed uint64) func(int) int {
	r := sim.NewRNG(seed)
	return func(k int) int { return r.Intn(k) }
}

func TestTreeMatchesPerNodeSort(t *testing.T) {
	for _, n := range []int{1, 2, 9, 64, 400} {
		for _, d := range []int{1, 3, 8} {
			X, y := continuousData(n, d, uint64(n*10+d))
			for _, depth := range []int{0, 3, 9} {
				for _, leaf := range []int{0, 1, 2, 5} {
					for _, maxFeat := range []int{0, 2} {
						label := fmt.Sprintf("n=%d d=%d depth=%d leaf=%d maxfeat=%d", n, d, depth, leaf, maxFeat)
						got := &RegressionTree{MaxDepth: depth, MinSamplesLeaf: leaf, MaxFeatures: maxFeat, rng: seededPick(3)}
						want := &RegressionTree{MaxDepth: depth, MinSamplesLeaf: leaf, MaxFeatures: maxFeat, rng: seededPick(3)}
						if err := got.Fit(X, y); err != nil {
							t.Fatal(err)
						}
						refFit(want, X, y)
						sameTree(t, label, got, want)
					}
				}
			}
		}
	}
}

func TestForestMatchesPerNodeSort(t *testing.T) {
	for _, n := range []int{1, 30, 300} {
		for _, d := range []int{2, 6} {
			X, y := continuousData(n, d, uint64(n*10+d))
			for _, depth := range []int{0, 6} {
				for _, leaf := range []int{1, 3} {
					for _, maxFeat := range []int{0, 1, d - 1} {
						label := fmt.Sprintf("n=%d d=%d depth=%d leaf=%d maxfeat=%d", n, d, depth, leaf, maxFeat)
						got := &RandomForestRegressor{NumTrees: 4, MaxDepth: depth, MinSamplesLeaf: leaf, MaxFeatures: maxFeat, Seed: 11}
						want := &RandomForestRegressor{NumTrees: 4, MaxDepth: depth, MinSamplesLeaf: leaf, MaxFeatures: maxFeat, Seed: 11}
						if err := got.Fit(X, y); err != nil {
							t.Fatal(err)
						}
						refForestFit(want, X, y)
						for i := range want.Trees {
							sameTree(t, fmt.Sprintf("%s tree %d", label, i), got.Trees[i], want.Trees[i])
						}
					}
				}
			}
		}
	}
}

// TestTiedFeaturesDeterministicAndLeafSizes covers the ties the
// presorted search orders by row where a per-node sort left them to the
// sort: integer-valued features, so many distinct rows share a value,
// with distinct targets.
func TestTiedFeaturesDeterministicAndLeafSizes(t *testing.T) {
	r := sim.NewRNG(21)
	n, d := 300, 4
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for f := range X[i] {
			X[i][f] = float64(r.Intn(4))
		}
		y[i] = X[i][0]*2 - X[i][1] + float64(i)/float64(n)
	}
	for _, leaf := range []int{1, 3, 10} {
		a := &RegressionTree{MaxDepth: 8, MinSamplesLeaf: leaf}
		b := &RegressionTree{MaxDepth: 8, MinSamplesLeaf: leaf}
		if err := a.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := b.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		sameTree(t, fmt.Sprintf("tree leaf=%d", leaf), a, b)
		if len(a.Nodes) < 3 {
			t.Fatalf("leaf=%d: tree did not split (%d nodes)", leaf, len(a.Nodes))
		}
		// Route every training row to its leaf and count.
		count := map[int]int{}
		for _, row := range X {
			k := 0
			for a.Nodes[k].Feature >= 0 {
				if row[a.Nodes[k].Feature] <= a.Nodes[k].Threshold {
					k = a.Nodes[k].Left
				} else {
					k = a.Nodes[k].Right
				}
			}
			count[k]++
		}
		for k, node := range a.Nodes {
			if node.Feature < 0 && count[k] < leaf {
				t.Fatalf("leaf=%d: leaf node %d holds %d rows", leaf, k, count[k])
			}
		}

		fa := &RandomForestRegressor{NumTrees: 5, MaxDepth: 8, MinSamplesLeaf: leaf, MaxFeatures: 2, Seed: 4}
		fb := &RandomForestRegressor{NumTrees: 5, MaxDepth: 8, MinSamplesLeaf: leaf, MaxFeatures: 2, Seed: 4}
		if err := fa.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		if err := fb.Fit(X, y); err != nil {
			t.Fatal(err)
		}
		for i := range fa.Trees {
			sameTree(t, fmt.Sprintf("forest leaf=%d tree %d", leaf, i), fa.Trees[i], fb.Trees[i])
		}
	}
}
