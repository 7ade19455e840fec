package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// twoStates is a two-state ASL machine of echo tasks.
const twoStates = `{
  "Comment": "two-state echo",
  "StartAt": "First",
  "States": {
    "First": {"Type": "Task", "Resource": "first", "Next": "Second"},
    "Second": {"Type": "Task", "Resource": "second", "End": true}
  }
}
`

// TestOutputPinned runs the command on a two-state definition file and
// compares its stdout byte for byte with testdata/stdout.txt.
func TestOutputPinned(t *testing.T) {
	def := filepath.Join(t.TempDir(), "machine.json")
	if err := os.WriteFile(def, []byte(twoStates), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-definition", def, "-input", `{"n":1}`}, &out); err != nil {
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
