package flow

import (
	"errors"
	"strings"
	"testing"
)

func TestInputFor(t *testing.T) {
	cur, entry := []byte("cur"), []byte("entry")
	for _, c := range []struct {
		mode InputMode
		want []byte
	}{{InputPrev, cur}, {InputEntry, entry}, {InputNone, nil}} {
		if got := InputFor(&Node{Input: c.mode}, cur, entry); string(got) != string(c.want) || (c.want == nil) != (got == nil) {
			t.Errorf("InputFor(mode %d) = %q, want %q", c.mode, got, c.want)
		}
	}
}

func TestItems(t *testing.T) {
	fanErr := errors.New("fan failed")
	st := &Stages{Fans: map[string]FanFn{
		"pair": func(in []byte) ([][]byte, error) { return [][]byte{in, in}, nil },
		"bad":  func([]byte) ([][]byte, error) { return nil, fanErr },
	}}
	for _, c := range []struct {
		name  string
		node  Node
		input string
		want  []string
		err   string
	}{
		{name: "array input", input: `[1, "two" ,{"k":3}]`, want: []string{`1`, `"two"`, `{"k":3}`}},
		{name: "empty array", input: `[]`, want: []string{}},
		{name: "not an array", input: `{"a":1}`, err: "items:"},
		{name: "field", node: Node{ItemsField: "xs"}, input: `{"xs":[true,null],"other":1}`, want: []string{`true`, `null`}},
		{name: "field missing", node: Node{ItemsField: "xs"}, input: `{"ys":[1]}`, err: `no "xs" field`},
		{name: "field not an array", node: Node{ItemsField: "xs"}, input: `{"xs":7}`, err: "items:"},
		{name: "envelope not an object", node: Node{ItemsField: "xs"}, input: `[1]`, err: "items envelope"},
		{name: "bound fan", node: Node{Fan: "pair"}, input: `x`, want: []string{`x`, `x`}},
		{name: "fan error", node: Node{Fan: "bad"}, input: `x`, err: "fan failed"},
		{name: "unbound fan", node: Node{Fan: "ghost"}, input: `x`, err: `unbound fan "ghost"`},
	} {
		t.Run(c.name, func(t *testing.T) {
			n := c.node
			n.Name = "map"
			got, err := Items(&n, st, []byte(c.input))
			if c.err != "" {
				if err == nil || !strings.Contains(err.Error(), c.err) {
					t.Fatalf("err = %v, want one mentioning %q", err, c.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(c.want) {
				t.Fatalf("items = %q, want %q", got, c.want)
			}
			for i := range got {
				if string(got[i]) != c.want[i] {
					t.Fatalf("item %d = %q, want %q (raw bytes preserved)", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestItemsMemo checks Items' per-node memo: a repeated input, even in
// another buffer, does not call the fan again; a different input
// recomputes; rewriting the caller's buffer after a call never yields
// a stale hit; items are clipped; and the JSON paths memoize too.
func TestItemsMemo(t *testing.T) {
	calls := 0
	st := &Stages{Fans: map[string]FanFn{
		// Splits at commas into subslices that keep the input's spare
		// capacity, as a naive fan would.
		"split": func(in []byte) ([][]byte, error) {
			calls++
			var out [][]byte
			start := 0
			for i, c := range in {
				if c == ',' {
					out = append(out, in[start:i])
					start = i + 1
				}
			}
			return append(out, in[start:]), nil
		},
	}}
	fan := &Node{Name: "fan", Fan: "split"}
	items := func(n *Node, input []byte, wantCalls int, want ...string) [][]byte {
		t.Helper()
		got, err := Items(n, st, input)
		if err != nil {
			t.Fatal(err)
		}
		if calls != wantCalls {
			t.Fatalf("Items(%q): fan called %d times, want %d", input, calls, wantCalls)
		}
		if len(got) != len(want) {
			t.Fatalf("Items(%q) = %q, want %q", input, got, want)
		}
		for i := range got {
			if string(got[i]) != want[i] {
				t.Fatalf("Items(%q) = %q, want %q", input, got, want)
			}
		}
		return got
	}
	buf := []byte("a,b,c")
	first := items(fan, buf, 1, "a", "b", "c")
	items(fan, buf, 1, "a", "b", "c")
	items(fan, []byte("a,b,c"), 1, "a", "b", "c")
	items(fan, []byte("a,b"), 2, "a", "b")
	items(fan, []byte("a,b,c"), 3, "a", "b", "c")

	copy(buf, "x,y,z")
	items(fan, buf, 4, "x", "y", "z")
	// The items built from the old bytes kept them.
	if string(first[0]) != "a" {
		t.Fatalf("rewriting the input changed an earlier item to %q", first[0])
	}
	got := items(fan, buf, 4, "x", "y", "z")
	copy(buf, "a,b,c")
	items(fan, buf, 5, "a", "b", "c")
	if cap(got[0]) != len(got[0]) || cap(got) != len(got) {
		t.Fatalf("items not clipped: cap %d of %d, list cap %d of %d", cap(got[0]), len(got[0]), cap(got), len(got))
	}
	if string(append(got[0], '!')) != "x!" || string(got[1]) != "y" {
		t.Fatalf("an append to item 0 wrote into item 1: %q", got[1])
	}

	// Another node keeps its own entry; a failed resolution is not kept.
	field := &Node{Name: "field", ItemsField: "xs"}
	a, err := Items(field, st, []byte(`{"xs":[1,2]}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Items(field, st, []byte(`{"xs":[1,2]}`))
	if err != nil || &a[0][0] != &b[0][0] {
		t.Fatalf("a repeated JSON input was parsed again (err %v)", err)
	}
	if _, err := Items(field, st, []byte(`{"ys":[1]}`)); err == nil {
		t.Fatal("missing field accepted")
	}
	if _, err := Items(field, st, []byte(`{"ys":[1]}`)); err == nil {
		t.Fatal("missing field accepted on the second call")
	}
	items(fan, []byte("a,b,c"), 5, "a", "b", "c")
}

func TestJoinOutputs(t *testing.T) {
	outs := [][]byte{[]byte(`{"b":2,"a":1}`), []byte(`"s"`)}
	cur := []byte("cur")
	for _, c := range []struct {
		name string
		node Node
		want string
	}{
		{"array", Node{Join: JoinArray}, `[{"b":2,"a":1},"s"]`},
		{"envelope", Node{Join: JoinEnvelope, ResultField: "results"}, `{"results":[{"b":2,"a":1},"s"]}`},
		{"discard", Node{Join: JoinDiscard}, `cur`},
	} {
		got, err := JoinOutputs(&c.node, outs, cur)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if string(got) != c.want {
			t.Errorf("%s: JoinOutputs = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestEvalChoice(t *testing.T) {
	lt, gte, small := 10.0, 100.0, "small"
	n := &Node{Name: "route", Cases: []ChoiceCase{
		{Var: "$.size", StrEq: &small, To: "tiny"},
		{Var: "$.n", NumLT: &lt, To: "few"},
		{Var: "n", NumGTE: &gte, To: "many"},
	}, Default: "some"}
	for _, c := range []struct {
		payload, want string
	}{
		{`{"size":"small","n":500}`, "tiny"}, // first matching case wins
		{`{"n":3}`, "few"},                   // "$." prefix stripped
		{`{"n":100}`, "many"},                // bare field name, bound inclusive
		{`{"n":50}`, "some"},                 // no case holds
		{`{"size":"large"}`, "some"},         // string mismatch, n missing
		{`{"n":"3","size":7}`, "some"},       // wrong types never match
		{`{}`, "some"},
	} {
		got, err := EvalChoice(n, []byte(c.payload))
		if err != nil || got != c.want {
			t.Errorf("EvalChoice(%s) = %q, %v; want %q", c.payload, got, err, c.want)
		}
	}
	if _, err := EvalChoice(n, []byte(`[1]`)); err == nil || !strings.Contains(err.Error(), "choice payload") {
		t.Errorf("non-object payload: err = %v", err)
	}
	noDefault := &Node{Name: "strict", Cases: n.Cases}
	if _, err := EvalChoice(noDefault, []byte(`{"n":50}`)); err == nil || !strings.Contains(err.Error(), "no default") {
		t.Errorf("no match without default: err = %v", err)
	}
}
