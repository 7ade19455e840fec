package statebench_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeBinariesAreTested reads every `go run ./...` line of
// README.md and fails when the package it names has no test, so every
// binary the README tells readers to run is also run by a test.
func TestReadmeBinariesAreTested(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]bool{}
	for _, m := range regexp.MustCompile(`go run (\./[\w./-]+)`).FindAllStringSubmatch(string(readme), -1) {
		pkgs[filepath.Clean(m[1])] = true
	}
	if len(pkgs) == 0 {
		t.Fatal("README.md has no `go run ./...` lines")
	}
	for pkg := range pkgs {
		files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		tested := false
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(src), "\nfunc Test") || strings.Contains(string(src), "\nfunc Example") {
				tested = true
				break
			}
		}
		if !tested {
			t.Errorf("README.md runs ./%s, which has no test", pkg)
		}
	}
}
