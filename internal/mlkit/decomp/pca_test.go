package decomp

import (
	"math"
	"testing"

	"statebench/internal/sim"
)

// corrData builds points stretched along a known direction.
func corrData(n int, seed uint64) [][]float64 {
	r := sim.NewRNG(seed)
	X := make([][]float64, n)
	for i := range X {
		t := r.Normal(0, 10)
		noise := r.Normal(0, 0.5)
		// Principal axis (1,2,0)/sqrt(5); minor noise on (2,-1,0).
		X[i] = []float64{
			t*1/math.Sqrt(5) + noise*2/math.Sqrt(5),
			t*2/math.Sqrt(5) - noise*1/math.Sqrt(5),
			r.Normal(0, 0.1),
		}
	}
	return X
}

func TestPCARecoversPrincipalAxis(t *testing.T) {
	X := corrData(2000, 1)
	p, err := FitPCA(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Components[0]
	// Component should align with (1,2,0)/sqrt(5) up to sign.
	dot := math.Abs(c[0]*1/math.Sqrt(5) + c[1]*2/math.Sqrt(5))
	if dot < 0.99 {
		t.Fatalf("component %v misaligned (|dot| = %.3f)", c, dot)
	}
}

func TestPCAComponentsOrthonormal(t *testing.T) {
	X := corrData(500, 2)
	p, err := FitPCA(X, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Components {
		for j := range p.Components {
			var dot float64
			for k := range p.Components[i] {
				dot += p.Components[i][k] * p.Components[j][k]
			}
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(dot-want) > 1e-6 {
				t.Fatalf("components %d·%d = %v, want %v", i, j, dot, want)
			}
		}
	}
	// Eigenvalues must be sorted descending.
	for i := 1; i < len(p.ExplainedVariance); i++ {
		if p.ExplainedVariance[i] > p.ExplainedVariance[i-1]+1e-9 {
			t.Fatal("eigenvalues not descending")
		}
	}
}

func TestPCATransformShapeAndCentering(t *testing.T) {
	X := corrData(300, 3)
	p, err := FitPCA(X, 2)
	if err != nil {
		t.Fatal(err)
	}
	Z, err := p.Transform(X)
	if err != nil {
		t.Fatal(err)
	}
	if len(Z) != 300 || len(Z[0]) != 2 {
		t.Fatalf("shape = %dx%d", len(Z), len(Z[0]))
	}
	// Projection of training data must be (near) zero-mean.
	for j := 0; j < 2; j++ {
		var mean float64
		for i := range Z {
			mean += Z[i][j]
		}
		mean /= float64(len(Z))
		if math.Abs(mean) > 1e-6 {
			t.Fatalf("projected mean[%d] = %v", j, mean)
		}
	}
}

func TestPCATransformPreservesVariance(t *testing.T) {
	X := corrData(1000, 4)
	p, err := FitPCA(X, 1)
	if err != nil {
		t.Fatal(err)
	}
	Z, err := p.Transform(X)
	if err != nil {
		t.Fatal(err)
	}
	var v float64
	for i := range Z {
		v += Z[i][0] * Z[i][0]
	}
	v /= float64(len(Z) - 1)
	if math.Abs(v-p.ExplainedVariance[0])/p.ExplainedVariance[0] > 0.01 {
		t.Fatalf("projected variance %v vs eigenvalue %v", v, p.ExplainedVariance[0])
	}
}

func TestPCAErrors(t *testing.T) {
	if _, err := FitPCA(nil, 1); err == nil {
		t.Fatal("empty matrix accepted")
	}
	X := corrData(10, 5)
	if _, err := FitPCA(X, 0); err == nil {
		t.Fatal("0 components accepted")
	}
	if _, err := FitPCA(X, 4); err == nil {
		t.Fatal("too many components accepted")
	}
	p, err := FitPCA(X, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Transform([][]float64{{1, 2}}); err == nil {
		t.Fatal("wrong-width transform accepted")
	}
}

func TestJacobiOnKnownMatrix(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 3 and 1.
	vals, vecs := jacobiEigen([][]float64{{2, 1}, {1, 2}})
	got := []float64{vals[0], vals[1]}
	if got[0] > got[1] {
		got[0], got[1] = got[1], got[0]
	}
	if math.Abs(got[0]-1) > 1e-9 || math.Abs(got[1]-3) > 1e-9 {
		t.Fatalf("eigenvalues = %v", vals)
	}
	// Eigenvector columns must be unit length.
	for c := 0; c < 2; c++ {
		n := vecs[0][c]*vecs[0][c] + vecs[1][c]*vecs[1][c]
		if math.Abs(n-1) > 1e-9 {
			t.Fatalf("eigenvector %d norm² = %v", c, n)
		}
	}
}
