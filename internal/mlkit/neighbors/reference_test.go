package neighbors

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"statebench/internal/sim"
)

// refPredict is Predict with a full sort of every candidate by
// (distance, row): the order the bounded selection must reproduce.
func refPredict(m *KNeighborsRegressor, X [][]float64) []float64 {
	type cand struct {
		dist float64
		row  int
	}
	out := make([]float64, len(X))
	for qi, q := range X {
		cands := make([]cand, len(m.XTrain))
		for i, row := range m.XTrain {
			var s float64
			for j := range row {
				d := row[j] - q[j]
				s += d * d
			}
			cands[i] = cand{dist: math.Sqrt(s), row: i}
		}
		slices.SortStableFunc(cands, func(a, b cand) int {
			switch {
			case a.dist < b.dist:
				return -1
			case a.dist > b.dist:
				return 1
			}
			return 0
		})
		top := cands[:m.K]
		if m.Weights == Distance {
			var num, den float64
			exact := false
			for _, c := range top {
				if c.dist == 0 {
					out[qi] = m.YTrain[c.row]
					exact = true
					break
				}
				num += 1 / c.dist * m.YTrain[c.row]
				den += 1 / c.dist
			}
			if !exact {
				out[qi] = num / den
			}
			continue
		}
		var s float64
		for _, c := range top {
			s += m.YTrain[c.row]
		}
		out[qi] = s / float64(m.K)
	}
	return out
}

// samePredictions fails unless Predict and refPredict agree bit for bit.
func samePredictions(t *testing.T, label string, m *KNeighborsRegressor, queries [][]float64) {
	t.Helper()
	got, err := m.Predict(queries)
	if err != nil {
		t.Fatal(err)
	}
	want := refPredict(m, queries)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: query %d = %v, want %v", label, i, got[i], want[i])
		}
	}
}

func randomRows(r *sim.RNG, n, d int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = r.Uniform(-3, 3)
		}
	}
	return X
}

// pcaRows draws n rows whose per-feature spread decays like PCA output
// (feature j scaled by 0.8^j): the leading features carry most of a
// distance, so partial sums reach the pruning bound at every check
// point, not only at the first.
func pcaRows(r *sim.RNG, n, d int) [][]float64 {
	X := make([][]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		scale := 3.0
		for j := range X[i] {
			X[i][j] = r.Normal(0, scale)
			scale *= 0.8
		}
	}
	return X
}

func TestPredictMatchesFullSort(t *testing.T) {
	r := sim.NewRNG(8)
	for _, n := range []int{1, 6, 50, 200} {
		for _, d := range []int{1, 4, 7, 20} {
			rows := randomRows
			if d > 4 {
				rows = pcaRows
			}
			X := rows(r, n, d)
			y := make([]float64, n)
			for i := range y {
				y[i] = r.Uniform(0, 100)
			}
			// Queries include training rows, so distance weighting meets
			// exact matches.
			queries := append(rows(r, 30, d), X[:min(n, 5)]...)
			for _, k := range []int{1, 5, n} {
				if k > n {
					continue
				}
				for _, w := range []Weighting{Uniform, Distance} {
					m := &KNeighborsRegressor{K: k, Weights: w}
					if err := m.Fit(X, y); err != nil {
						t.Fatal(err)
					}
					samePredictions(t, fmt.Sprintf("n=%d d=%d K=%d w=%d", n, d, k, w), m, queries)
				}
			}
		}
	}
}

// TestPredictRejectsNonFinite checks that NaN and infinite features are
// errors in training rows and in queries: a NaN distance would enter
// the K nearest (nothing compares >= NaN), and the pruning argument
// holds only for finite sums.
func TestPredictRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		X := [][]float64{{0, 1}, {2, 3}, {4, 5}}
		X[1][1] = bad
		m := &KNeighborsRegressor{K: 1}
		if err := m.Fit(X, []float64{1, 2, 3}); err == nil {
			t.Errorf("Fit accepted a training row holding %v", bad)
		}
		if m.XTrain != nil {
			t.Errorf("a failed Fit left %d memorized rows", len(m.XTrain))
		}
		if err := m.Fit([][]float64{{0, 1}, {2, 3}}, []float64{1, 2}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Predict([][]float64{{0, 1}, {bad, 0}}); err == nil {
			t.Errorf("Predict accepted a query holding %v", bad)
		}
	}
}

// TestPredictTieOrder pins the (distance, row) order on ties: every
// training point appears three times with different targets, so which
// copies enter the K nearest, the order their targets are summed in,
// and which exact match distance weighting returns all depend on it.
func TestPredictTieOrder(t *testing.T) {
	r := sim.NewRNG(9)
	base := randomRows(r, 20, 3)
	var X [][]float64
	var y []float64
	for copyIdx := 0; copyIdx < 3; copyIdx++ {
		for i, row := range base {
			X = append(X, row)
			y = append(y, float64(i)+0.1*float64(copyIdx)+r.Uniform(0, 1e-3))
		}
	}
	queries := append(randomRows(r, 20, 3), base...)
	for _, k := range []int{1, 2, 4, 5, len(X)} {
		for _, w := range []Weighting{Uniform, Distance} {
			m := &KNeighborsRegressor{K: k, Weights: w}
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			samePredictions(t, fmt.Sprintf("K=%d w=%d", k, w), m, queries)
		}
	}
	// An exact match on a tripled point returns the first copy's target.
	m := &KNeighborsRegressor{K: 3, Weights: Distance}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(base[4:5])
	if err != nil {
		t.Fatal(err)
	}
	if pred[0] != y[4] {
		t.Fatalf("exact match = %v, want the first copy's %v", pred[0], y[4])
	}
}

// TestPredictSameAtAnyWorkerCount scores 1, 3 and 2,500 queries at
// GOMAXPROCS 1, 2 and 8 against the full sort, and checks that a
// non-finite query past the first chunk is reported as the sequential
// scan reported it, ahead of a later malformed query.
func TestPredictSameAtAnyWorkerCount(t *testing.T) {
	r := sim.NewRNG(12)
	X := pcaRows(r, 400, 8)
	y := make([]float64, len(X))
	for i := range y {
		y[i] = r.Uniform(0, 100)
	}
	queries := append(pcaRows(r, 2490, 8), X[:10]...)
	m := &KNeighborsRegressor{K: 5, Weights: Distance}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	want := refPredict(m, queries)
	bad := slices.Clone(queries)
	bad[chunkQueries+5] = []float64{0, 0, 0, math.NaN(), 0, 0, 0, 0}
	bad[3*chunkQueries] = []float64{1}
	const wantErr = "neighbors: query 69 has non-finite feature 3 (NaN)"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 3, len(queries)} {
			got, err := m.Predict(queries[:n])
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("GOMAXPROCS %d, %d queries: query %d = %v, want %v", procs, n, i, v, want[i])
				}
			}
		}
		if _, err := m.Predict(bad); err == nil || err.Error() != wantErr {
			t.Fatalf("GOMAXPROCS %d: error %v, want %q", procs, err, wantErr)
		}
	}
}
