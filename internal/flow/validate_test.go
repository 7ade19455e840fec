package flow

import (
	"strings"
	"testing"
)

// task returns a minimal valid task node.
func task(name, next string) *Node {
	return &Node{Name: name, Kind: KindTask, Fn: "fn-" + name, Stage: "stage", Next: next}
}

// defWith wraps one mono graph in a definition.
func defWith(g *Graph) *Definition {
	return &Definition{Name: "t", Graphs: map[Class]*Graph{Mono: g}}
}

func wantInvalid(t *testing.T, def *Definition, frag string) {
	t.Helper()
	err := Validate(def)
	if err == nil {
		t.Fatalf("Validate accepted a definition that should fail with %q", frag)
	}
	if _, ok := err.(*ValidationError); !ok {
		t.Fatalf("Validate returned %T, want *ValidationError", err)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("Validate error %q does not mention %q", err, frag)
	}
}

func TestValidateAcceptsAMinimalGraph(t *testing.T) {
	def := defWith(&Graph{Class: Mono, Start: "A", Nodes: []*Node{task("A", "")}})
	if err := Validate(def); err != nil {
		t.Fatalf("Validate rejected a minimal graph: %v", err)
	}
}

func TestValidateRejectsCycles(t *testing.T) {
	wantInvalid(t, defWith(&Graph{Class: Mono, Start: "A", Nodes: []*Node{
		task("A", "B"), task("B", "A"),
	}}), "cycle detected")
	// Self-loop.
	wantInvalid(t, defWith(&Graph{Class: Mono, Start: "A", Nodes: []*Node{
		task("A", "A"),
	}}), "cycle detected")
}

func TestValidateRejectsUnreachableNodes(t *testing.T) {
	wantInvalid(t, defWith(&Graph{Class: Mono, Start: "A", Nodes: []*Node{
		task("A", ""), task("Orphan", ""),
	}}), "unreachable")
}

func TestValidateRejectsFanOutBeyondBound(t *testing.T) {
	iter := task("Each", "")
	wantInvalid(t, defWith(&Graph{Class: Mono, Start: "M", Nodes: []*Node{{
		Name: "M", Kind: KindMap, Iter: iter, MaxConcurrency: MaxFanOut + 1,
	}}}), "exceeds limit")

	branches := make([]*Node, MaxFanOut+1)
	for i := range branches {
		branches[i] = task("B"+strings.Repeat("x", i%3)+string(rune('a'+i%26)), "")
	}
	wantInvalid(t, defWith(&Graph{Class: Mono, Start: "P", Nodes: []*Node{{
		Name: "P", Kind: KindParallel, Branches: branches,
	}}}), "exceeds limit")

	wantInvalid(t, defWith(&Graph{Class: Mono, Start: "M", Nodes: []*Node{{
		Name: "M", Kind: KindMap, Iter: iter, MaxConcurrency: -1,
	}}}), "negative fan-out")
}

func TestValidateRejectsDanglingAndMalformedShapes(t *testing.T) {
	cases := []struct {
		name string
		def  *Definition
		frag string
	}{
		{"no name", &Definition{Graphs: map[Class]*Graph{}}, "no name"},
		{"no graphs", &Definition{Name: "t"}, "no graphs"},
		{"class mismatch", &Definition{Name: "t", Graphs: map[Class]*Graph{
			Mono: {Class: Machine, Start: "A", Nodes: []*Node{task("A", "")}},
		}}, "declares class"},
		{"no nodes", defWith(&Graph{Class: Mono, Start: "A"}), "no nodes"},
		{"no start", defWith(&Graph{Class: Mono, Nodes: []*Node{task("A", "")}}), "no start"},
		{"missing start", defWith(&Graph{Class: Mono, Start: "Z", Nodes: []*Node{task("A", "")}}), "does not exist"},
		{"duplicate names", defWith(&Graph{Class: Mono, Start: "A", Nodes: []*Node{
			task("A", "B"), task("B", ""), task("B", ""),
		}}), "duplicate"},
		{"dangling edge", defWith(&Graph{Class: Mono, Start: "A", Nodes: []*Node{
			task("A", "Gone"),
		}}), "unknown node"},
		{"task without fn", defWith(&Graph{Class: Mono, Start: "A", Nodes: []*Node{
			{Name: "A", Kind: KindTask, Stage: "s"},
		}}), "no function name"},
		{"task without stage", defWith(&Graph{Class: Mono, Start: "A", Nodes: []*Node{
			{Name: "A", Kind: KindTask, Fn: "f"},
		}}), "no stage"},
		{"map without iter", defWith(&Graph{Class: Mono, Start: "M", Nodes: []*Node{
			{Name: "M", Kind: KindMap},
		}}), "no iterator"},
		{"parallel without branches", defWith(&Graph{Class: Mono, Start: "P", Nodes: []*Node{
			{Name: "P", Kind: KindParallel},
		}}), "no branches"},
		{"choice with two comparisons", defWith(&Graph{Class: Mono, Start: "C", Nodes: []*Node{
			{Name: "C", Kind: KindChoice, Cases: []ChoiceCase{{
				Var: "x", To: "A", NumLT: f64(1), NumGTE: f64(2),
			}}, Default: "A"},
			task("A", ""),
		}}), "exactly one comparison"},
		{"wait and choice as parallel branches", defWith(&Graph{Class: Mono, Start: "P", Nodes: []*Node{
			{Name: "P", Kind: KindParallel, Branches: []*Node{
				{Name: "W", Kind: KindWait, WaitSeconds: 1},
				{Name: "C", Kind: KindChoice, Cases: []ChoiceCase{{Var: "x", To: "P", NumLT: f64(1)}}},
			}},
		}}), `branch "W" is a wait node`},
		{"choice as map iterator", defWith(&Graph{Class: Mono, Start: "M", Nodes: []*Node{
			{Name: "M", Kind: KindMap, Iter: &Node{Name: "C", Kind: KindChoice, Cases: []ChoiceCase{{Var: "x", To: "M", NumLT: f64(1)}}}},
		}}), `iterator "C" is a choice node`},
		{"pure parallel branch", defWith(&Graph{Class: Mono, Start: "P", Nodes: []*Node{
			{Name: "P", Kind: KindParallel, Branches: []*Node{{Name: "T", Kind: KindTask, Pure: true, Stage: "s"}}},
		}}), `branch "T" is a pure transform`},
		{"choice on a nested field", choiceOn("$.a.b"), "one top-level field"},
		{"choice on an indexed field", choiceOn("xs[0]"), "one top-level field"},
		{"choice on no field", choiceOn("$."), "one top-level field"},
		{"non-positive wait", defWith(&Graph{Class: Mono, Start: "W", Nodes: []*Node{
			{Name: "W", Kind: KindWait, WaitSeconds: 0},
		}}), "must be positive"},
		{"bad sub-graph", defWith(&Graph{Class: Mono, Start: "S", Nodes: []*Node{
			{Name: "S", Kind: KindSub, SubGraph: &Graph{Class: Mono, Start: "X", Nodes: []*Node{
				task("X", "X"),
			}}},
		}}), "cycle detected"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { wantInvalid(t, c.def, c.frag) })
	}
}

// TestValidateFindsDefectsInsideIterators proves shape checks recurse
// into nested nodes, where most real mistakes hide.
func TestValidateFindsDefectsInsideIterators(t *testing.T) {
	wantInvalid(t, defWith(&Graph{Class: Mono, Start: "M", Nodes: []*Node{{
		Name: "M", Kind: KindMap,
		Iter: &Node{Name: "Each", Kind: KindTask, Fn: "f"}, // no stage
	}}}), "no stage")
}

// TestValidateAcceptsTaskShapedMembers: entity calls and sub-workflows
// fan out as well as platform tasks do.
func TestValidateAcceptsTaskShapedMembers(t *testing.T) {
	sub := &Graph{Class: Mono, Start: "X", Nodes: []*Node{task("X", "")}}
	def := defWith(&Graph{Class: Mono, Start: "M", Nodes: []*Node{
		{Name: "M", Kind: KindMap, Next: "P", Iter: &Node{Name: "S", Kind: KindSub, SubGraph: sub}},
		{Name: "P", Kind: KindParallel, Branches: []*Node{
			task("T", ""),
			{Name: "E", Kind: KindTask, Entity: "ent", Op: "get"},
		}},
	}})
	if err := Validate(def); err != nil {
		t.Fatalf("Validate rejected task-shaped members: %v", err)
	}
}

// TestNodesListsSubGraphBeforeCaller pins flow.Nodes' order: each node,
// then its iterator or branches, with a sub-graph's nodes before the
// sub node, so a sub-workflow's tasks register before it does.
func TestNodesListsSubGraphBeforeCaller(t *testing.T) {
	sub := &Graph{Class: Mono, Start: "X", Nodes: []*Node{task("X", "Y"), task("Y", "")}}
	g := &Graph{Class: Mono, Start: "A", Nodes: []*Node{
		task("A", "M"),
		{Name: "M", Kind: KindMap, Next: "P", Iter: &Node{Name: "S", Kind: KindSub, SubGraph: sub}},
		{Name: "P", Kind: KindParallel, Branches: []*Node{task("B1", ""), task("B2", "")}},
	}}
	var names []string
	for _, n := range Nodes(g) {
		names = append(names, n.Name)
	}
	if got, want := strings.Join(names, " "), "A M X Y S P B1 B2"; got != want {
		t.Fatalf("Nodes order %q, want %q", got, want)
	}
}

// choiceOn wraps one choice case reading field v in a definition.
func choiceOn(v string) *Definition {
	return defWith(&Graph{Class: Mono, Start: "C", Nodes: []*Node{
		{Name: "C", Kind: KindChoice, Cases: []ChoiceCase{{Var: v, To: "A", NumLT: f64(1)}}, Default: "A"},
		task("A", ""),
	}})
}

func f64(v float64) *float64 { return &v }
