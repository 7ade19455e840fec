package main

import (
	"bytes"
	"os"
	"testing"
)

// TestOutputPinned runs the command as README.md does and compares
// its stdout byte for byte with testdata/stdout.txt.
func TestOutputPinned(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workers", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/stdout.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Fatalf("stdout differs from testdata/stdout.txt\ngot:\n%s\nwant:\n%s", got, want)
	}
}
