package modelsel

import (
	"testing"

	"statebench/internal/sim"
)

func linData(n int, seed uint64) ([][]float64, []float64) {
	r := sim.NewRNG(seed)
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{r.Uniform(-3, 3), r.Uniform(-3, 3)}
		y[i] = 2*X[i][0] - X[i][1] + r.Normal(0, 0.2)
	}
	return X, y
}

func TestSplitShapesAndDisjoint(t *testing.T) {
	X, y := linData(100, 1)
	trX, trY, teX, teY, err := Split(X, y, 0.25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(trX) != 75 || len(teX) != 25 || len(trY) != 75 || len(teY) != 25 {
		t.Fatalf("split sizes %d/%d", len(trX), len(teX))
	}
	if _, _, _, _, err := Split(X, y, 0, 7); err == nil {
		t.Fatal("testFrac=0 accepted")
	}
	if _, _, _, _, err := Split(nil, nil, 0.5, 7); err == nil {
		t.Fatal("empty split accepted")
	}
}

func TestSplitDeterministic(t *testing.T) {
	X, y := linData(50, 2)
	_, aY, _, _, err := Split(X, y, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	_, bY, _, _, err := Split(X, y, 0.2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range aY {
		if aY[i] != bY[i] {
			t.Fatal("same-seed split differs")
		}
	}
}

func TestBestFitKeepsMinimum(t *testing.T) {
	var b BestFit
	if !b.Report("a", 10, []byte("ma")) {
		t.Fatal("first report rejected")
	}
	if b.Report("b", 20, []byte("mb")) {
		t.Fatal("worse report accepted")
	}
	if !b.Report("c", 5, []byte("mc")) {
		t.Fatal("better report rejected")
	}
	if b.Name != "c" || b.MSE != 5 || string(b.Model) != "mc" {
		t.Fatalf("best = %+v", b)
	}
}
