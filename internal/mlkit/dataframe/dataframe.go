// Package dataframe provides a small column-typed table — the pandas
// analogue the paper's ML workloads manipulate — with CSV round-trips,
// row slicing, and conversion to numeric matrices for modeling.
package dataframe

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ColumnType distinguishes numeric from categorical columns.
type ColumnType int

// Column types.
const (
	Numeric ColumnType = iota
	Categorical
)

// Column is one named, typed column.
type Column struct {
	Name string
	Type ColumnType
	Nums []float64 // valid when Type == Numeric
	Cats []string  // valid when Type == Categorical
}

// Len returns the column's row count.
func (c *Column) Len() int {
	if c.Type == Numeric {
		return len(c.Nums)
	}
	return len(c.Cats)
}

// DataFrame is an ordered collection of equal-length columns.
type DataFrame struct {
	cols  []*Column
	index map[string]int
}

// New creates an empty frame.
func New() *DataFrame {
	return &DataFrame{index: make(map[string]int)}
}

// AddNumeric appends a numeric column.
func (df *DataFrame) AddNumeric(name string, vals []float64) error {
	return df.add(&Column{Name: name, Type: Numeric, Nums: vals})
}

// AddCategorical appends a categorical column.
func (df *DataFrame) AddCategorical(name string, vals []string) error {
	return df.add(&Column{Name: name, Type: Categorical, Cats: vals})
}

func (df *DataFrame) add(c *Column) error {
	if _, dup := df.index[c.Name]; dup {
		return fmt.Errorf("dataframe: duplicate column %q", c.Name)
	}
	if len(df.cols) > 0 && c.Len() != df.NumRows() {
		return fmt.Errorf("dataframe: column %q has %d rows, frame has %d", c.Name, c.Len(), df.NumRows())
	}
	df.index[c.Name] = len(df.cols)
	df.cols = append(df.cols, c)
	return nil
}

// NumRows returns the row count.
func (df *DataFrame) NumRows() int {
	if len(df.cols) == 0 {
		return 0
	}
	return df.cols[0].Len()
}

// Column returns a column by name.
func (df *DataFrame) Column(name string) (*Column, bool) {
	i, ok := df.index[name]
	if !ok {
		return nil, false
	}
	return df.cols[i], true
}

// CategoricalNames returns the names of categorical columns in order.
func (df *DataFrame) CategoricalNames() []string {
	var out []string
	for _, c := range df.cols {
		if c.Type == Categorical {
			out = append(out, c.Name)
		}
	}
	return out
}

// NumericNames returns the names of numeric columns in order.
func (df *DataFrame) NumericNames() []string {
	var out []string
	for _, c := range df.cols {
		if c.Type == Numeric {
			out = append(out, c.Name)
		}
	}
	return out
}

// Drop returns a copy of the frame without the named column.
func (df *DataFrame) Drop(name string) (*DataFrame, error) {
	if _, ok := df.index[name]; !ok {
		return nil, fmt.Errorf("dataframe: no column %q", name)
	}
	out := New()
	for _, c := range df.cols {
		if c.Name == name {
			continue
		}
		if err := out.add(cloneColumn(c)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// NumericMatrix returns the numeric columns as a row-major matrix.
func (df *DataFrame) NumericMatrix() [][]float64 {
	rows := df.NumRows()
	var numCols []*Column
	for _, c := range df.cols {
		if c.Type == Numeric {
			numCols = append(numCols, c)
		}
	}
	// One flat backing array for the whole matrix: identical values, two
	// allocations instead of one per row.
	d := len(numCols)
	backing := make([]float64, rows*d)
	m := make([][]float64, rows)
	for i := range m {
		m[i] = backing[i*d : (i+1)*d : (i+1)*d]
		for j, c := range numCols {
			m[i][j] = c.Nums[i]
		}
	}
	return m
}

func cloneColumn(c *Column) *Column {
	nc := &Column{Name: c.Name, Type: c.Type}
	nc.Nums = append([]float64(nil), c.Nums...)
	nc.Cats = append([]string(nil), c.Cats...)
	return nc
}

// WriteCSV encodes the frame as CSV with a header row.
func (df *DataFrame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(df.cols))
	for i, c := range df.cols {
		prefix := "n:"
		if c.Type == Categorical {
			prefix = "c:"
		}
		header[i] = prefix + c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rows := df.NumRows()
	rec := make([]string, len(df.cols))
	for r := 0; r < rows; r++ {
		for i, c := range df.cols {
			if c.Type == Numeric {
				rec[i] = strconv.FormatFloat(c.Nums[r], 'g', -1, 64)
			} else {
				rec[i] = c.Cats[r]
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// CSVBytes serializes the frame to CSV in memory (used to measure the
// payload sizes flowing through the workflows).
func (df *DataFrame) CSVBytes() ([]byte, error) {
	var sb strings.Builder
	if err := df.WriteCSV(&sb); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}
