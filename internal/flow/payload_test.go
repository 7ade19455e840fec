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
