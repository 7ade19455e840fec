// Package decomp implements principal component analysis — the
// dimension-reduction step of the paper's ML pipeline — from scratch:
// covariance computation plus a cyclic Jacobi eigendecomposition of the
// symmetric covariance matrix.
package decomp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// PCA is a fitted principal-component projection.
type PCA struct {
	// Components is the projection matrix, one row per component
	// (each of length = input features).
	Components [][]float64
	// Mean is the per-feature training mean subtracted before
	// projection.
	Mean []float64
	// ExplainedVariance holds the eigenvalue of each kept component.
	ExplainedVariance []float64
	// TotalVariance is the sum of all eigenvalues. Nothing reads it
	// back, but it is part of the gob-serialized transformer, so it
	// counts toward the payload bytes the workflows move.
	TotalVariance float64
}

// FitPCA learns nComponents principal axes of X. nComponents must be in
// [1, features].
func FitPCA(X [][]float64, nComponents int) (*PCA, error) {
	if len(X) == 0 {
		return nil, fmt.Errorf("decomp: empty matrix")
	}
	d := len(X[0])
	if nComponents < 1 || nComponents > d {
		return nil, fmt.Errorf("decomp: nComponents %d out of range [1,%d]", nComponents, d)
	}
	mean := make([]float64, d)
	for i := range X {
		if len(X[i]) != d {
			return nil, fmt.Errorf("decomp: ragged matrix at row %d", i)
		}
		for j, v := range X[i] {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(X))
	}

	// Covariance (d x d), symmetric.
	cov := make([][]float64, d)
	for i := range cov {
		cov[i] = make([]float64, d)
	}
	for _, row := range X {
		for a := 0; a < d; a++ {
			da := row[a] - mean[a]
			for b := a; b < d; b++ {
				cov[a][b] += da * (row[b] - mean[b])
			}
		}
	}
	norm := float64(len(X) - 1)
	if norm <= 0 {
		norm = 1
	}
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			cov[a][b] /= norm
			cov[b][a] = cov[a][b]
		}
	}

	vals, vecs := jacobiEigen(cov)

	// Order by descending eigenvalue.
	idx := make([]int, d)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(vals[b], vals[a]) })

	p := &PCA{Mean: mean}
	for _, v := range vals {
		p.TotalVariance += math.Max(v, 0)
	}
	for c := 0; c < nComponents; c++ {
		col := idx[c]
		comp := make([]float64, d)
		for r := 0; r < d; r++ {
			comp[r] = vecs[r][col]
		}
		p.Components = append(p.Components, comp)
		p.ExplainedVariance = append(p.ExplainedVariance, math.Max(vals[col], 0))
	}
	return p, nil
}

// Transform projects X onto the fitted components.
func (p *PCA) Transform(X [][]float64) ([][]float64, error) {
	d := len(p.Mean)
	out := make([][]float64, len(X))
	// One flat backing array for every projected row: identical values,
	// two allocations instead of one per row.
	k := len(p.Components)
	backing := make([]float64, len(X)*k)
	for i, row := range X {
		if len(row) != d {
			return nil, fmt.Errorf("decomp: row has %d features, PCA fitted on %d", len(row), d)
		}
		proj := backing[i*k : (i+1)*k : (i+1)*k]
		for c, comp := range p.Components {
			var s float64
			for j := 0; j < d; j++ {
				s += (row[j] - p.Mean[j]) * comp[j]
			}
			proj[c] = s
		}
		out[i] = proj
	}
	return out, nil
}

// jacobiEigen diagonalizes a symmetric matrix with cyclic Jacobi
// rotations, returning eigenvalues and the eigenvector matrix (columns
// are eigenvectors). The input is copied, not mutated.
func jacobiEigen(m [][]float64) ([]float64, [][]float64) {
	n := len(m)
	a := make([][]float64, n)
	for i := range a {
		a[i] = append([]float64(nil), m[i]...)
	}
	v := identity(n)

	const maxSweeps = 64
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a[i][j] * a[i][j]
			}
		}
		if off < 1e-18 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				if math.Abs(a[p][q]) < 1e-30 {
					continue
				}
				theta := (a[q][q] - a[p][p]) / (2 * a[p][q])
				t := sign(theta) / (math.Abs(theta) + math.Sqrt(theta*theta+1))
				c := 1 / math.Sqrt(t*t+1)
				s := t * c

				rotate(a, p, q, c, s)
				// Accumulate eigenvectors.
				for i := 0; i < n; i++ {
					vip, viq := v[i][p], v[i][q]
					v[i][p] = c*vip - s*viq
					v[i][q] = s*vip + c*viq
				}
			}
		}
	}
	vals := make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = a[i][i]
	}
	return vals, v
}

// rotate applies the Jacobi rotation on rows/cols p and q of a.
func rotate(a [][]float64, p, q int, c, s float64) {
	n := len(a)
	app, aqq, apq := a[p][p], a[q][q], a[p][q]
	a[p][p] = c*c*app - 2*s*c*apq + s*s*aqq
	a[q][q] = s*s*app + 2*s*c*apq + c*c*aqq
	a[p][q] = 0
	a[q][p] = 0
	for i := 0; i < n; i++ {
		if i == p || i == q {
			continue
		}
		aip, aiq := a[i][p], a[i][q]
		a[i][p] = c*aip - s*aiq
		a[p][i] = a[i][p]
		a[i][q] = s*aip + c*aiq
		a[q][i] = a[i][q]
	}
}

func identity(n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	return m
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
