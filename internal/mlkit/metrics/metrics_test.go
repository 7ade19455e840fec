package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMSEAndRMSE(t *testing.T) {
	yt := []float64{1, 2, 3}
	yp := []float64{1, 2, 5} // errors 0,0,2 -> mse 4/3
	mse, err := MSE(yt, yp)
	if err != nil || math.Abs(mse-4.0/3) > 1e-12 {
		t.Fatalf("mse = %v, %v", mse, err)
	}
}

func TestErrorCases(t *testing.T) {
	if _, err := MSE(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := MSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("mismatch accepted")
	}
}

// Property: MSE >= 0, and zero for identical inputs.
func TestPropertyMSE(t *testing.T) {
	f := func(a, b []float64) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		yt, yp := a[:n], b[:n]
		for _, v := range append(yt, yp...) {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		mse, err := MSE(yt, yp)
		if err != nil || mse < 0 {
			return false
		}
		self, err := MSE(yt, yt)
		return err == nil && self == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
