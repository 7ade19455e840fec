package dataframe

import (
	"bytes"
	"encoding/csv"
	"reflect"
	"testing"
)

func sample() *DataFrame {
	df := New()
	if err := df.AddCategorical("color", []string{"red", "blue", "red"}); err != nil {
		panic(err)
	}
	if err := df.AddNumeric("size", []float64{1, 2, 3}); err != nil {
		panic(err)
	}
	return df
}

func TestAddAndShape(t *testing.T) {
	df := sample()
	if df.NumRows() != 3 || len(df.cols) != 2 {
		t.Fatalf("shape = %dx%d", df.NumRows(), len(df.cols))
	}
	if err := df.AddNumeric("bad", []float64{1}); err == nil {
		t.Fatal("length-mismatched column accepted")
	}
	if err := df.AddNumeric("size", []float64{1, 2, 3}); err == nil {
		t.Fatal("duplicate column accepted")
	}
}

func TestColumnAccessAndNames(t *testing.T) {
	df := sample()
	c, ok := df.Column("color")
	if !ok || c.Type != Categorical || c.Cats[1] != "blue" {
		t.Fatalf("column access: %+v", c)
	}
	if _, ok := df.Column("ghost"); ok {
		t.Fatal("ghost column found")
	}
	if got := df.CategoricalNames(); len(got) != 1 || got[0] != "color" {
		t.Fatalf("categorical names = %v", got)
	}
	if got := df.NumericNames(); len(got) != 1 || got[0] != "size" {
		t.Fatalf("numeric names = %v", got)
	}
}

func TestDrop(t *testing.T) {
	df := sample()
	out, err := df.Drop("color")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.cols) != 1 || len(df.cols) != 2 {
		t.Fatal("drop wrong or mutated original")
	}
	if _, err := df.Drop("ghost"); err == nil {
		t.Fatal("drop of missing column succeeded")
	}
}

func TestNumericMatrix(t *testing.T) {
	df := sample()
	m := df.NumericMatrix()
	if len(m) != 3 || len(m[0]) != 1 || m[2][0] != 3 {
		t.Fatalf("matrix = %v", m)
	}
}

// TestCSVRoundTrip reads WriteCSV's output back with encoding/csv: a
// typed header row, then every value in row order.
func TestCSVRoundTrip(t *testing.T) {
	df := sample()
	var buf bytes.Buffer
	if err := df.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"c:color", "n:size"}, {"red", "1"}, {"blue", "2"}, {"red", "3"}}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("round trip = %q, want %q", recs, want)
	}
}

// TestCSVBytesRoundTrip checks that CSVBytes, whose length is the
// dataset payload the workflows move, holds the whole frame.
func TestCSVBytesRoundTrip(t *testing.T) {
	df := GenerateCars(50, 7)
	data, err := df.CSVBytes()
	if err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(bytes.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 51 || len(recs[0]) != len(df.cols) {
		t.Fatalf("cars round trip shape %dx%d, want 51x%d", len(recs), len(recs[0]), len(df.cols))
	}
}

func TestGenerateCarsShape(t *testing.T) {
	df := GenerateCars(200, 1)
	if df.NumRows() != 200 {
		t.Fatalf("rows = %d", df.NumRows())
	}
	// 26 features + price target.
	if len(df.cols) != 27 {
		t.Fatalf("cols = %d, want 27", len(df.cols))
	}
	if got := len(df.CategoricalNames()); got != 12 {
		t.Fatalf("categoricals = %d, want 12", got)
	}
	price, ok := df.Column("price")
	if !ok {
		t.Fatal("no price column")
	}
	for _, p := range price.Nums {
		if p < 1000 || p > 200000 {
			t.Fatalf("implausible price %v", p)
		}
	}
}

func TestGenerateCarsDeterministic(t *testing.T) {
	a := GenerateCars(100, 42)
	b := GenerateCars(100, 42)
	ca, _ := a.Column("price")
	cb, _ := b.Column("price")
	for i := range ca.Nums {
		if ca.Nums[i] != cb.Nums[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c := GenerateCars(100, 43)
	cc, _ := c.Column("price")
	if ca.Nums[0] == cc.Nums[0] && ca.Nums[1] == cc.Nums[1] {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateCarsPriceSignal(t *testing.T) {
	// Luxury cars must be pricier on average than economy — the signal
	// the models learn.
	df := GenerateCars(2000, 5)
	market, _ := df.Column("market")
	price, _ := df.Column("price")
	var lux, eco, nLux, nEco float64
	for i := range market.Cats {
		switch market.Cats[i] {
		case "luxury":
			lux += price.Nums[i]
			nLux++
		case "economy":
			eco += price.Nums[i]
			nEco++
		}
	}
	if lux/nLux < 1.2*(eco/nEco) {
		t.Fatalf("luxury mean %.0f vs economy %.0f: signal too weak", lux/nLux, eco/nEco)
	}
}
