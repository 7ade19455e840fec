package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTrafficCSVDependsOnlyOnSeed runs the same small open-loop sweep
// twice: the CSV must come out byte for byte the same, so it carries
// no wall-clock reading.
func TestTrafficCSVDependsOnlyOnSeed(t *testing.T) {
	args := []string{"-csv", "-tenants", "2000", "-rate", "200", "-duration", "5s", "-process", "all"}
	var runs [2]bytes.Buffer
	for i := range runs {
		if err := runTraffic(args, &runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	first, second := runs[0].String(), runs[1].String()
	if first != second {
		t.Fatalf("two runs of one seed differ:\n%s\n---\n%s", first, second)
	}
	// A header, a title, and one row per provider and process.
	if rows := strings.Count(first, "\n"); rows < 2+3 {
		t.Fatalf("CSV has %d lines:\n%s", rows, first)
	}
}
