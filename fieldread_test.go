package statebench_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryFieldIsRead is the field counterpart of
// TestEveryFunctionIsReachable. It type-checks the module's non-test
// files and the perfbench harness and fails on any struct field the
// module declares that no non-test code reads: a field that is only
// written cannot reach a report, an export or a figure. A selection
// counts as a read unless it is the left side of an assignment (any
// operator), the operand of ++ or --, or the first argument of an
// append assigned back to the same field; composite-literal keys are
// writes. Tagged fields (an encoder reads them) and the fields of
// struct types used as map keys (comparing keys reads them) are exempt,
// and embedded fields are not checked, because any interface the
// struct satisfies may call the methods they promote.
// Any other unread field is deleted, or listed with its reason in
// testdata/field_allow.txt; entries that are read or no longer
// declared fail too. perfbench's own fields are not checked, because
// the harness is not part of the program under test.
func TestEveryFieldIsRead(t *testing.T) {
	pkgs := listPackages(t, ".", "-deps", "./...")
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.ImportPath] = true
	}
	harness := listPackages(t, "perfbench", "-deps", ".")
	for _, p := range harness {
		if !seen[p.ImportPath] {
			seen[p.ImportPath] = true
			pkgs = append(pkgs, p)
		}
	}
	harnessPath := harness[len(harness)-1].ImportPath

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	a := newFieldAnalysis()
	// go list -deps lists every package after its dependencies.
	for _, p := range pkgs {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := newInfo()
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.ImportPath] = pkg
		if p.ImportPath != harnessPath {
			a.declare(p.ImportPath, files, info)
		}
		a.scan(files, info)
	}

	allow := readAllowlist(t, filepath.Join("testdata", "field_allow.txt"))
	var unread []string
	for name, status := range a.statuses() {
		switch {
		case status != fieldUnread && allow[name]:
			t.Errorf("%s is allowlisted but %s: delete its line from testdata/field_allow.txt", name, status)
		case status == fieldUnread && !allow[name]:
			unread = append(unread, name)
		}
		delete(allow, name)
	}
	for name := range allow {
		t.Errorf("%s is allowlisted but no longer declared: delete its line from testdata/field_allow.txt", name)
	}
	if len(unread) > 0 {
		sort.Strings(unread)
		t.Errorf("%d fields are never read: delete each with the code that only writes it, or allowlist it with its reason\n\t%s",
			len(unread), strings.Join(unread, "\n\t"))
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

type fieldStatus string

const (
	fieldRead   fieldStatus = "read"
	fieldUnread fieldStatus = "unread"
	fieldExempt fieldStatus = "exempt" // tagged, or a map key's field
)

// fieldAnalysis collects the fields some packages declare and the
// fields any scanned package reads.
type fieldAnalysis struct {
	names  map[*types.Var]string // declared field -> "pkg.Type.Field"
	tagged map[*types.Var]bool
	read   map[*types.Var]bool
	keys   map[*types.Var]bool // fields of map key types
}

func newFieldAnalysis() *fieldAnalysis {
	return &fieldAnalysis{
		names:  map[*types.Var]string{},
		tagged: map[*types.Var]bool{},
		read:   map[*types.Var]bool{},
		keys:   map[*types.Var]bool{},
	}
}

// statuses classifies every declared field by name.
func (a *fieldAnalysis) statuses() map[string]fieldStatus {
	out := map[string]fieldStatus{}
	for v, name := range a.names {
		switch {
		case a.tagged[v] || a.keys[v]:
			out[name] = fieldExempt
		case a.read[v]:
			out[name] = fieldRead
		default:
			out[name] = fieldUnread
		}
	}
	return out
}

// declare records the struct fields the files declare, named by their
// package path and the names enclosing them: "pkg.Type.Field" for a
// named type, "pkg.Func.Type.Field" for a type local to a function,
// "pkg.Type.Field.Sub" for a field of an anonymous struct.
func (a *fieldAnalysis) declare(pkgPath string, files []*ast.File, info *types.Info) {
	for _, f := range files {
		var stack []string
		var pushed []bool
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				if pushed[len(pushed)-1] {
					stack = stack[:len(stack)-1]
				}
				pushed = pushed[:len(pushed)-1]
				return true
			}
			name := ""
			switch n := n.(type) {
			case *ast.FuncDecl:
				name = n.Name.Name
			case *ast.TypeSpec:
				name = n.Name.Name
			case *ast.ValueSpec:
				name = n.Names[0].Name
			case *ast.Field:
				if len(n.Names) > 0 {
					name = n.Names[0].Name
				}
			case *ast.StructType:
				st := info.TypeOf(n).(*types.Struct)
				prefix := strings.Join(append([]string{pkgPath}, stack...), ".")
				for i := 0; i < st.NumFields(); i++ {
					v := st.Field(i)
					if v.Embedded() {
						continue
					}
					a.names[v] = prefix + "." + v.Name()
					a.tagged[v] = st.Tag(i) != ""
				}
			}
			pushed = append(pushed, name != "")
			if name != "" {
				stack = append(stack, name)
			}
			return true
		})
	}
}

// scan records every field the files read and the fields of every
// struct type they use as a map key.
func (a *fieldAnalysis) scan(files []*ast.File, info *types.Info) {
	writes := map[*ast.SelectorExpr]bool{}
	write := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			writes[sel] = true
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					write(lhs)
					if len(n.Rhs) == len(n.Lhs) {
						if arg := selfAppend(info, lhs, n.Rhs[i]); arg != nil {
							write(arg)
						}
					}
				}
			case *ast.IncDecStmt:
				write(n.X)
			}
			return true
		})
	}
	for sel, s := range info.Selections {
		if s.Kind() == types.FieldVal && !writes[sel] {
			a.read[s.Obj().(*types.Var).Origin()] = true
		}
	}
	for _, tv := range info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			a.markKey(m.Key())
		}
	}
}

// selfAppend returns the first argument of rhs if rhs is an append to
// the field lhs selects, as in x.f = append(x.f, v).
func selfAppend(info *types.Info, lhs, rhs ast.Expr) ast.Expr {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	fn, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	dst, ok1 := ast.Unparen(lhs).(*ast.SelectorExpr)
	src, ok2 := ast.Unparen(call.Args[0]).(*ast.SelectorExpr)
	if !ok1 || !ok2 || info.Selections[dst] == nil || info.Selections[src] == nil ||
		info.Selections[dst].Obj() != info.Selections[src].Obj() {
		return nil
	}
	return src
}

// markKey exempts the fields of a map key type, and of the structs and
// arrays it holds by value, because comparing keys reads them.
func (a *fieldAnalysis) markKey(t types.Type) {
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			a.keys[u.Field(i).Origin()] = true
			a.markKey(u.Field(i).Type())
		}
	case *types.Array:
		a.markKey(u.Elem())
	}
}

// TestFieldReadRules pins the gate's read/write classification on small
// in-memory packages.
func TestFieldReadRules(t *testing.T) {
	cases := []struct {
		name, src, field string
		want             fieldStatus
	}{
		{"plain read", `type T struct{ f int }; func g(x *T) int { return x.f }`, "T.f", fieldRead},
		{"address taken", `type T struct{ f int }; func g(x *T) *int { return &x.f }`, "T.f", fieldRead},
		{"assignment", `type T struct{ f int }; func g(x *T) { x.f = 1 }`, "T.f", fieldUnread},
		{"compound assignment", `type T struct{ f int }; func g(x *T) { x.f += 1 }`, "T.f", fieldUnread},
		{"increment", `type T struct{ f int }; func g(x *T) { x.f++ }`, "T.f", fieldUnread},
		{"self append", `type T struct{ f []int }; func g(x *T) { x.f = append(x.f, 1) }`, "T.f", fieldUnread},
		{"append to another field", `type T struct{ f, h []int }; func g(x *T) { x.h = append(x.f, 1) }`, "T.f", fieldRead},
		{"composite key", `type T struct{ f int }; var V = T{f: 1}`, "T.f", fieldUnread},
		{"positional literal", `type T struct{ f int }; var V = T{1}`, "T.f", fieldUnread},
		{"generic field read", `type G[E any] struct{ f E }; func g(x G[int]) int { return x.f }`, "G.f", fieldRead},
		{"generic field written", `type G[E any] struct{ f E }; func g(x *G[int]) { x.f = 1 }`, "G.f", fieldUnread},
		{"map key", `type K struct{ f int }; var M = map[K]bool{{f: 1}: true}`, "K.f", fieldExempt},
		{"tagged", "type T struct{ f int `json:\"f\"` }; func g(x *T) { x.f = 1 }", "T.f", fieldExempt},
		{"local type", `func g() int { type T struct{ f int }; return T{f: 1}.f }`, "g.T.f", fieldRead},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "p.go", "package p\n"+c.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files := []*ast.File{f}
			info := newInfo()
			if _, err := (&types.Config{}).Check("p", fset, files, info); err != nil {
				t.Fatal(err)
			}
			a := newFieldAnalysis()
			a.declare("p", files, info)
			a.scan(files, info)
			if got := a.statuses()["p."+c.field]; got != c.want {
				t.Fatalf("%s is %q, want %q", c.field, got, c.want)
			}
		})
	}
}
