package ensemble

import (
	"bytes"
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"statebench/internal/mlkit/metrics"
	"statebench/internal/sim"
)

// stepData is a piecewise-constant target trees should nail.
func stepData(n int, seed uint64) ([][]float64, []float64) {
	r := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		x0 := r.Uniform(0, 10)
		x1 := r.Uniform(0, 10)
		X[i] = []float64{x0, x1}
		switch {
		case x0 < 3:
			y[i] = 1
		case x0 < 7 && x1 < 5:
			y[i] = 5
		default:
			y[i] = 9
		}
	}
	return X, y
}

func TestTreeFitsPiecewiseConstant(t *testing.T) {
	X, y := stepData(500, 1)
	tree := &RegressionTree{MaxDepth: 8, MinSamplesLeaf: 2}
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred, err := tree.Predict(X)
	if err != nil {
		t.Fatal(err)
	}
	mse, _ := metrics.MSE(y, pred)
	if mse > 0.05 {
		t.Fatalf("tree mse = %v", mse)
	}
}

// distinctPredictions counts the distinct values tree predicts on X:
// at most one per leaf.
func distinctPredictions(t *testing.T, tree *RegressionTree, X [][]float64) int {
	t.Helper()
	pred, err := tree.Predict(X)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]bool{}
	for _, p := range pred {
		seen[p] = true
	}
	return len(seen)
}

func TestTreeDepthLimit(t *testing.T) {
	X, y := stepData(500, 2)
	tree := &RegressionTree{MaxDepth: 1}
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// Depth 1 is one split: at most two leaves, two predicted values.
	if n := distinctPredictions(t, tree, X); n > 2 {
		t.Fatalf("%d distinct predictions, want <= 2 at depth 1", n)
	}
}

func TestTreeMinSamplesLeaf(t *testing.T) {
	X, y := stepData(100, 3)
	tree := &RegressionTree{MinSamplesLeaf: 40}
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	// With >= 40 rows per leaf and 100 rows, at most 2 leaves.
	if n := distinctPredictions(t, tree, X); n > 2 {
		t.Fatalf("%d distinct predictions with large MinSamplesLeaf, want <= 2", n)
	}
}

func TestTreePureLeafStops(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	tree := &RegressionTree{}
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if len(tree.Nodes) != 1 {
		t.Fatalf("pure target grew %d nodes", len(tree.Nodes))
	}
	pred, _ := tree.Predict([][]float64{{99}})
	if pred[0] != 7 {
		t.Fatalf("pred = %v", pred[0])
	}
}

func TestTreeErrors(t *testing.T) {
	tree := &RegressionTree{}
	if err := tree.Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	if _, err := tree.Predict([][]float64{{1}}); err == nil {
		t.Fatal("unfitted predict accepted")
	}
	X, y := stepData(50, 4)
	if err := tree.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Predict([][]float64{{1}}); err == nil {
		t.Fatal("narrow predict accepted")
	}
}

func TestForestBeatsSingleTreeOnNoisy(t *testing.T) {
	r := sim.NewRNG(5)
	n := 600
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Uniform(0, 10), r.Uniform(0, 10), r.Uniform(0, 10)}
		y[i] = math.Sin(X[i][0]) * 5 * X[i][1] / (1 + X[i][2]) // smooth nonlinear
	}
	trainX, trainY := X[:400], y[:400]
	testX, testY := X[400:], y[400:]

	tree := &RegressionTree{MaxDepth: 12}
	if err := tree.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	tp, _ := tree.Predict(testX)
	treeMSE, _ := metrics.MSE(testY, tp)

	forest := &RandomForestRegressor{NumTrees: 30, MaxDepth: 12, Seed: 7}
	if err := forest.Fit(trainX, trainY); err != nil {
		t.Fatal(err)
	}
	fp, _ := forest.Predict(testX)
	forestMSE, _ := metrics.MSE(testY, fp)

	if forestMSE >= treeMSE {
		t.Fatalf("forest mse %v not better than single tree %v", forestMSE, treeMSE)
	}
}

func TestForestDeterministicBySeed(t *testing.T) {
	X, y := stepData(200, 6)
	a := &RandomForestRegressor{NumTrees: 5, Seed: 9}
	b := &RandomForestRegressor{NumTrees: 5, Seed: 9}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pa, _ := a.Predict(X[:10])
	pb, _ := b.Predict(X[:10])
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("same seed, different predictions")
		}
	}
	for i := range a.Trees {
		if len(a.Trees[i].Nodes) != len(b.Trees[i].Nodes) {
			t.Fatal("same seed, different structure")
		}
	}
}

func TestForestDefaultsAndErrors(t *testing.T) {
	f := &RandomForestRegressor{}
	if _, err := f.Predict([][]float64{{1}}); err == nil {
		t.Fatal("unfitted forest predicted")
	}
	if err := f.Fit(nil, nil); err == nil {
		t.Fatal("empty fit accepted")
	}
	X, y := stepData(60, 7)
	if err := f.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if f.NumTrees != 10 || len(f.Trees) != 10 {
		t.Fatalf("default trees = %d/%d", f.NumTrees, len(f.Trees))
	}
	if len(f.Trees[0].Nodes) == 0 {
		t.Fatal("no nodes grown")
	}
}

// TestForestSameAtAnyWorkerCount fits a 7-tree forest at GOMAXPROCS 1,
// 2 and 8, with every feature at every split and with a feature
// subsample, and checks that each fit gob-encodes to the same bytes:
// the trees' growth order must not show in the model.
func TestForestSameAtAnyWorkerCount(t *testing.T) {
	X, y := continuousData(300, 5, 17)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, maxFeat := range []int{0, 2} {
		var want []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			f := &RandomForestRegressor{NumTrees: 7, MaxDepth: 8, MinSamplesLeaf: 2, MaxFeatures: maxFeat, Seed: 5}
			if err := f.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(f); err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = buf.Bytes()
			} else if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("maxfeat=%d: the forest fitted at GOMAXPROCS %d encodes differently from GOMAXPROCS 1", maxFeat, procs)
			}
		}
	}
}
