package statebench_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestEveryFunctionIsReachable links every binary the repository ships
// (each package main and the perfbench harness) with inlining off, so
// that small live functions keep their symbols, and fails on any
// function declared in non-test code that none of those binaries
// contains. A function only tests call is code the program never runs;
// it is either deleted or listed, with the test that needs it, in
// testdata/reachable_allow.txt. Allowlist entries that are reachable or
// no longer declared fail too, so the list cannot go stale.
func TestEveryFunctionIsReachable(t *testing.T) {
	bin := t.TempDir()
	pkgs := listPackages(t, ".", "./...")

	var mains []string
	for _, p := range pkgs {
		if p.Name == "main" {
			mains = append(mains, p.ImportPath)
		}
	}
	goCmd(t, ".", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, mains...)...)
	goCmd(t, "perfbench", "build", "-gcflags=all=-l", "-o", filepath.Join(bin, "perfbench"), ".")

	// Library symbols may live in any binary; a main package's
	// symbols are named "main." and belong to its own binary alone.
	library := map[string]bool{}
	mainSyms := map[string]map[string]bool{}
	for _, name := range append([]string{"perfbench"}, baseNames(mains)...) {
		syms := symbols(t, filepath.Join(bin, name))
		mainSyms[name] = map[string]bool{}
		for s := range syms {
			if strings.HasPrefix(s, "main.") {
				mainSyms[name][s] = true
			} else {
				library[s] = true
			}
		}
	}

	allow := readAllowlist(t, filepath.Join("testdata", "reachable_allow.txt"))
	declared := map[string]bool{}
	var dead []string
	for _, p := range pkgs {
		// linked is the package's symbol prefix in the binaries.
		have, linked := library, p.ImportPath
		if p.Name == "main" {
			have, linked = mainSyms[filepath.Base(p.ImportPath)], "main"
		}
		for _, f := range p.GoFiles {
			for _, fn := range funcDecls(t, filepath.Join(p.Dir, f)) {
				if fn.name == "init" || (p.Name == "main" && fn.name == "main") {
					continue
				}
				sym := p.ImportPath + "." + fn.name
				declared[sym] = true
				live := have[linked+"."+fn.name]
				if fn.valueRecv != "" {
					live = live || have[linked+"."+fn.valueRecv]
				}
				switch {
				case live && allow[sym]:
					t.Errorf("%s is allowlisted but reachable: delete its line from testdata/reachable_allow.txt", sym)
				case !live && !allow[sym]:
					dead = append(dead, sym)
				}
			}
		}
	}
	for sym := range allow {
		if !declared[sym] {
			t.Errorf("%s is allowlisted but no longer declared: delete its line from testdata/reachable_allow.txt", sym)
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Errorf("%d functions are in no binary: delete them, or allowlist each with the test of reachable behaviour that needs it\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

type goPackage struct {
	ImportPath, Dir, Name string
	GoFiles               []string
	Standard              bool
}

// listPackages runs go list in dir and returns the packages it names,
// with the non-test files that this platform's build compiles.
func listPackages(t *testing.T, dir string, args ...string) []goPackage {
	t.Helper()
	out := goCmd(t, dir, append([]string{"list", "-json"}, args...)...)
	var pkgs []goPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p goPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s (in %s): %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	return out
}

func baseNames(paths []string) []string {
	names := make([]string, len(paths))
	for i, p := range paths {
		names[i] = filepath.Base(p)
	}
	return names
}

// nmLine is one `go tool nm` line: an address (blank for undefined
// symbols), a one-letter type, and the name, which may contain spaces
// inside generic shape types.
var nmLine = regexp.MustCompile(`^\s*[0-9a-f]*\s+[A-Za-z]\s+(.+)$`)

// symbols returns a binary's symbol names with every generic
// instantiation's bracketed type list removed, so that
// "sim.(*Future[go.shape.int]).Get" reads "sim.(*Future).Get".
func symbols(t *testing.T, path string) map[string]bool {
	t.Helper()
	out := goCmd(t, ".", "tool", "nm", path)
	syms := map[string]bool{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if m := nmLine.FindStringSubmatch(sc.Text()); m != nil {
			syms[stripBrackets(m[1])] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return syms
}

func stripBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

type funcDecl struct {
	name string // as the linker spells it: "F", "T.M" or "(*T).M"
	// valueRecv is the pointer-wrapper spelling "(*T).M" of a
	// value-receiver method, which a binary may hold instead of "T.M".
	valueRecv string
}

func funcDecls(t *testing.T, path string) []funcDecl {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var fns []funcDecl
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fd.Recv == nil {
			fns = append(fns, funcDecl{name: fd.Name.Name})
			continue
		}
		typ := fd.Recv.List[0].Type
		star, isPtr := typ.(*ast.StarExpr)
		if isPtr {
			typ = star.X
		}
		switch x := typ.(type) {
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		}
		recv := typ.(*ast.Ident).Name
		if isPtr {
			fns = append(fns, funcDecl{name: "(*" + recv + ")." + fd.Name.Name})
		} else {
			fns = append(fns, funcDecl{name: recv + "." + fd.Name.Name, valueRecv: "(*" + recv + ")." + fd.Name.Name})
		}
	}
	return fns
}

// readAllowlist reads "symbol  reason" lines; blank lines and lines
// starting with # are skipped, and every entry must give a reason.
func readAllowlist(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	allow := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s: allowlist entry %s gives no reason", path, sym)
		}
		allow[sym] = true
	}
	return allow
}
