package preprocess

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"statebench/internal/mlkit/dataframe"
)

func frame() *dataframe.DataFrame {
	df := dataframe.New()
	if err := df.AddCategorical("color", []string{"red", "blue", "red", "green"}); err != nil {
		panic(err)
	}
	if err := df.AddNumeric("size", []float64{1, 2, 3, 4}); err != nil {
		panic(err)
	}
	return df
}

func TestOneHotTransform(t *testing.T) {
	df := frame()
	enc := FitOneHot(df)
	out, err := enc.Transform(df)
	if err != nil {
		t.Fatal(err)
	}
	// 3 indicator columns + 1 numeric.
	if got := len(out.NumericNames()); got != 4 || len(out.CategoricalNames()) != 0 {
		t.Fatalf("numeric cols = %d, want 4 and no categoricals", got)
	}
	red, ok := out.Column("color=red")
	if !ok {
		t.Fatal("missing indicator column")
	}
	want := []float64{1, 0, 1, 0}
	for i := range want {
		if red.Nums[i] != want[i] {
			t.Fatalf("red indicator = %v", red.Nums)
		}
	}
}

func TestOneHotUnknownCategoryAllZeros(t *testing.T) {
	enc := FitOneHot(frame())
	test := dataframe.New()
	if err := test.AddCategorical("color", []string{"purple"}); err != nil {
		t.Fatal(err)
	}
	if err := test.AddNumeric("size", []float64{9}); err != nil {
		t.Fatal(err)
	}
	out, err := enc.Transform(test)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"color=red", "color=blue", "color=green"} {
		c, _ := out.Column(name)
		if c.Nums[0] != 0 {
			t.Fatalf("unknown category set indicator %s", name)
		}
	}
}

func TestOneHotMissingColumnErrors(t *testing.T) {
	enc := FitOneHot(frame())
	bad := dataframe.New()
	if err := bad.AddNumeric("size", []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := enc.Transform(bad); err == nil {
		t.Fatal("transform without categorical column succeeded")
	}
}

func TestStandardScaler(t *testing.T) {
	X := [][]float64{{1, 10}, {2, 20}, {3, 30}}
	s := FitStandard(X)
	out, err := s.Transform(X)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2; j++ {
		var mean, sq float64
		for i := range out {
			mean += out[i][j]
		}
		mean /= 3
		for i := range out {
			d := out[i][j] - mean
			sq += d * d
		}
		if math.Abs(mean) > 1e-9 {
			t.Fatalf("col %d mean = %v", j, mean)
		}
		if math.Abs(sq/3-1) > 1e-9 {
			t.Fatalf("col %d var = %v", j, sq/3)
		}
	}
}

func TestStandardScalerConstantColumn(t *testing.T) {
	X := [][]float64{{5}, {5}, {5}}
	s := FitStandard(X)
	out, err := s.Transform(X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i][0] != 0 {
			t.Fatalf("constant column scaled to %v", out[i][0])
		}
	}
}

func TestScalerShapeMismatch(t *testing.T) {
	s := FitStandard([][]float64{{1, 2}})
	if _, err := s.Transform([][]float64{{1}}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

func TestEncodeDecodeTransformers(t *testing.T) {
	enc := FitOneHot(frame())
	data, err := Encode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatal("empty encoding")
	}
	var back OneHotEncoder
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if len(back.Vocab["color"]) != 3 {
		t.Fatalf("decoded vocab = %v", back.Vocab)
	}
	// Decoded encoder must transform identically.
	out, err := back.Transform(frame())
	if err != nil || len(out.NumericNames()) != 4 {
		t.Fatalf("decoded transform: %v cols=%v", err, out.NumericNames())
	}
}
