package flow

import (
	"fmt"
	"strings"
)

// MaxFanOut bounds a single fan-out's width: the widest managed map
// state the simulated providers accept. Validation rejects static
// fan-outs beyond it, and lowerers clamp nothing — a data-dependent
// fan that exceeds it fails at run time with a graph error.
const MaxFanOut = 1024

// ValidationError reports a structural defect found at registration
// time.
type ValidationError struct {
	Def   string
	Graph Class
	Node  string
	Msg   string
}

func (e *ValidationError) Error() string {
	where := fmt.Sprintf("flow: %s/%s", e.Def, e.Graph)
	if e.Node != "" {
		where += "/" + e.Node
	}
	return where + ": " + e.Msg
}

// Validate checks a definition's graphs at registration time: name
// uniqueness, dangling references, cycles, reachability, fan-out
// bounds, and task completeness. Workloads call it from New, and the
// graph subcommand calls it before rendering, so a malformed IR never
// reaches a lowerer.
func Validate(def *Definition) error {
	if def.Name == "" {
		return &ValidationError{Def: "?", Msg: "definition has no name"}
	}
	if len(def.Graphs) == 0 {
		return &ValidationError{Def: def.Name, Msg: "definition has no graphs"}
	}
	for _, class := range classOrder {
		g, ok := def.Graphs[class]
		if !ok {
			continue
		}
		if g.Class != class {
			return &ValidationError{Def: def.Name, Graph: class, Msg: fmt.Sprintf("graph registered under class %q declares class %q", class, g.Class)}
		}
		if err := validateGraph(def.Name, g); err != nil {
			return err
		}
	}
	return nil
}

// classOrder fixes the iteration order over a definition's graphs for
// every deterministic consumer (validation, lint, DOT).
var classOrder = []Class{Mono, Machine, Queue, DurableOrch, DurableEnt}

func validateGraph(defName string, g *Graph) error {
	fail := func(node, format string, args ...any) error {
		return &ValidationError{Def: defName, Graph: g.Class, Node: node, Msg: fmt.Sprintf(format, args...)}
	}
	if len(g.Nodes) == 0 {
		return fail("", "graph has no nodes")
	}
	byName := make(map[string]*Node, len(g.Nodes))
	for _, n := range g.Nodes {
		if n.Name == "" {
			return fail("", "node with empty name")
		}
		if _, dup := byName[n.Name]; dup {
			return fail(n.Name, "duplicate node name")
		}
		byName[n.Name] = n
	}
	if g.Start == "" {
		return fail("", "graph has no start node")
	}
	if _, ok := byName[g.Start]; !ok {
		return fail("", "start node %q does not exist", g.Start)
	}

	// Per-node shape checks, including nested iterator/branch/sub
	// nodes (which live outside the top-level namespace).
	for _, n := range g.Nodes {
		if err := validateNode(defName, g, n, byName); err != nil {
			return err
		}
	}

	// Reachability and cycle detection over the top-level successor
	// edges (Next, choice cases, choice default).
	const (
		white = 0 // unvisited
		grey  = 1 // on the DFS stack
		black = 2 // finished
	)
	color := make(map[string]int, len(g.Nodes))
	var visit func(name string, from string) error
	visit = func(name, from string) error {
		n, ok := byName[name]
		if !ok {
			return fail(from, "edge to unknown node %q", name)
		}
		switch color[name] {
		case grey:
			return fail(name, "cycle detected through %q", name)
		case black:
			return nil
		}
		color[name] = grey
		for _, succ := range successors(n) {
			if err := visit(succ, name); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	if err := visit(g.Start, ""); err != nil {
		return err
	}
	for _, n := range g.Nodes {
		if color[n.Name] == white {
			return fail(n.Name, "unreachable from start node %q", g.Start)
		}
	}
	return nil
}

// successors lists a node's top-level outgoing edges.
func successors(n *Node) []string {
	var out []string
	if n.Next != "" {
		out = append(out, n.Next)
	}
	for _, c := range n.Cases {
		if c.To != "" {
			out = append(out, c.To)
		}
	}
	if n.Default != "" {
		out = append(out, n.Default)
	}
	return out
}

func validateNode(defName string, g *Graph, n *Node, byName map[string]*Node) error {
	fail := func(format string, args ...any) error {
		return &ValidationError{Def: defName, Graph: g.Class, Node: n.Name, Msg: fmt.Sprintf(format, args...)}
	}
	switch n.Kind {
	case KindTask:
		switch {
		case n.Pure:
			if n.Stage == "" {
				return fail("pure task has no stage")
			}
		case n.Entity != "":
			if n.Op == "" {
				return fail("entity task has no op")
			}
		default:
			if n.Fn == "" {
				return fail("task has no function name")
			}
			if n.Stage == "" {
				return fail("task has no stage")
			}
		}
	case KindMap:
		if n.Iter == nil {
			return fail("map has no iterator node")
		}
		if n.MaxConcurrency < 0 {
			return fail("negative fan-out bound %d", n.MaxConcurrency)
		}
		if n.MaxConcurrency > MaxFanOut {
			return fail("fan-out bound %d exceeds limit %d", n.MaxConcurrency, MaxFanOut)
		}
		if why := fanMember(n.Iter); why != "" {
			return fail("iterator %q %s", n.Iter.Name, why)
		}
		if err := validateNode(defName, g, n.Iter, byName); err != nil {
			return err
		}
	case KindParallel:
		if len(n.Branches) == 0 {
			return fail("parallel has no branches")
		}
		if len(n.Branches) > MaxFanOut {
			return fail("static fan-out %d exceeds limit %d", len(n.Branches), MaxFanOut)
		}
		for _, b := range n.Branches {
			if why := fanMember(b); why != "" {
				return fail("branch %q %s", b.Name, why)
			}
			if err := validateNode(defName, g, b, byName); err != nil {
				return err
			}
		}
	case KindChoice:
		if len(n.Cases) == 0 {
			return fail("choice has no cases")
		}
		for _, c := range n.Cases {
			if c.To == "" {
				return fail("choice case has no target")
			}
			set := 0
			if c.NumLT != nil {
				set++
			}
			if c.NumGTE != nil {
				set++
			}
			if c.StrEq != nil {
				set++
			}
			if set != 1 {
				return fail("choice case on %q must set exactly one comparison", c.Var)
			}
			// EvalChoice reads the field as one literal key, ASL as a
			// path: they agree only on a plain top-level name.
			if f := ChoiceField(c.Var); f == "" || strings.ContainsAny(f, ".[") {
				return fail("choice case on %q must read one top-level field", c.Var)
			}
		}
	case KindWait:
		if n.WaitSeconds <= 0 {
			return fail("wait duration must be positive, got %v", n.WaitSeconds)
		}
	case KindSub:
		if n.SubGraph == nil {
			return fail("sub node has no sub-graph")
		}
		if err := validateGraph(defName, n.SubGraph); err != nil {
			return err
		}
	default:
		return fail("unknown node kind %d", int(n.Kind))
	}
	return nil
}

// fanMember says why m cannot be a map iterator or parallel branch, or
// returns "" when it can. Run hands every member to the backend as one
// call, so it must be a platform task, an entity operation or a
// sub-workflow: a pure transform runs only inline.
func fanMember(m *Node) string {
	switch {
	case m.Kind != KindTask && m.Kind != KindSub:
		return fmt.Sprintf("is a %s node, not a task or sub-workflow", m.Kind)
	case m.Pure:
		return "is a pure transform, which runs only inline"
	}
	return ""
}
