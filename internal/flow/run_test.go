package flow

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// scripted is a Backend that logs every primitive Run asks for. A call
// returns answer(node, input); a call of the node named failOn, or a
// fan-out over it, fails.
type scripted struct {
	log    []string
	failOn string
}

var errScripted = errors.New("scripted failure")

func (s *scripted) Call(n *Node, in []byte) ([]byte, error) {
	s.log = append(s.log, fmt.Sprintf("call %s %s", n.Name, in))
	if n.Name == s.failOn {
		return nil, errScripted
	}
	return answer(n.Name, string(in)), nil
}

// answer is the scripted output of a node on an input: the JSON string
// "<node>(<input>)", so joins can embed it.
func answer(node, in string) []byte {
	out, _ := json.Marshal(node + "(" + in + ")")
	return out
}

func (s *scripted) Fan(nodes []*Node, ins [][]byte) (outs [][]byte, err error) {
	calls := make([]string, len(nodes))
	outs = make([][]byte, len(nodes))
	for i, n := range nodes {
		calls[i] = fmt.Sprintf("%s %s", n.Name, ins[i])
		outs[i] = answer(n.Name, string(ins[i]))
		if n.Name == s.failOn {
			err = errScripted
		}
	}
	s.log = append(s.log, "fan ["+strings.Join(calls, ", ")+"]")
	return outs, err
}

func (s *scripted) Sleep(d time.Duration) error {
	s.log = append(s.log, "sleep "+d.String())
	return nil
}

// runScripted runs g on a fresh scripted backend and returns the
// output, the error and the backend's log.
func runScripted(t *testing.T, g *Graph, st *Stages, entry string) (string, []string, error) {
	t.Helper()
	if err := Validate(defWith(g)); err != nil {
		t.Fatalf("test graph is invalid: %v", err)
	}
	b := &scripted{failOn: "Fail"}
	out, err := Run(g, st, []byte(entry), b)
	return string(out), b.log, err
}

func wantLog(t *testing.T, got []string, want ...string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("backend log:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

func TestRunRoutesChoices(t *testing.T) {
	lt, gte := 10.0, 100.0
	route := func(def string) *Graph {
		return &Graph{Class: Mono, Start: "Route", Nodes: []*Node{
			{Name: "Route", Kind: KindChoice, Cases: []ChoiceCase{
				{Var: "$.n", NumLT: &lt, To: "Few"},
				{Var: "n", NumGTE: &gte, To: "Many"},
			}, Default: def},
			task("Few", ""), task("Many", ""), task("Some", ""),
		}}
	}
	for _, c := range []struct{ entry, want string }{
		{`{"n":3}`, "Few"},
		{`{"n":100}`, "Many"},
		{`{"n":50}`, "Some"},
		{`{"size":1}`, "Some"}, // no case's field is present
	} {
		out, log, err := runScripted(t, route("Some"), nil, c.entry)
		if err != nil {
			t.Fatalf("%s: %v", c.entry, err)
		}
		wantLog(t, log, "call "+c.want+" "+c.entry)
		if want := string(answer(c.want, c.entry)); out != want {
			t.Errorf("%s: output %s, want %s", c.entry, out, want)
		}
	}
	g := route("")
	g.Nodes = g.Nodes[:3]
	_, log, err := runScripted(t, g, nil, `{"n":50}`)
	if err == nil || !strings.Contains(err.Error(), "no choice case matched") {
		t.Fatalf("no match without default: err = %v", err)
	}
	wantLog(t, log)
}

func TestRunSleepsForWaitSeconds(t *testing.T) {
	out, log, err := runScripted(t, &Graph{Class: Mono, Start: "W", Nodes: []*Node{
		{Name: "W", Kind: KindWait, WaitSeconds: 2.5, Next: "A"},
		task("A", ""),
	}}, nil, "x")
	if err != nil {
		t.Fatal(err)
	}
	wantLog(t, log, "sleep 2.5s", "call A x")
	if out != string(answer("A", "x")) {
		t.Errorf("output %s, want A on x: a wait passes its payload through", out)
	}
}

func TestRunSerialMapCallsInItemOrder(t *testing.T) {
	out, log, err := runScripted(t, &Graph{Class: Mono, Start: "M", Nodes: []*Node{
		{Name: "M", Kind: KindMap, Serial: true, Iter: task("Each", "")},
	}}, &Stages{}, `[1,2,3]`)
	if err != nil {
		t.Fatal(err)
	}
	wantLog(t, log, "call Each 1", "call Each 2", "call Each 3")
	if want := fmt.Sprintf("[%s,%s,%s]", answer("Each", "1"), answer("Each", "2"), answer("Each", "3")); out != want {
		t.Errorf("output %s, want %s", out, want)
	}
}

// TestRunFansOutOnceWithResolvedInputs: a concurrent map hands every
// item to one Fan call, and a parallel hands each branch the input its
// Input mode selects.
func TestRunFansOutOnceWithResolvedInputs(t *testing.T) {
	each := task("Each", "")
	entryBranch, noneBranch := task("FromEntry", ""), task("FromNone", "")
	entryBranch.Input, noneBranch.Input = InputEntry, InputNone
	out, log, err := runScripted(t, &Graph{Class: Mono, Start: "M", Nodes: []*Node{
		{Name: "M", Kind: KindMap, Next: "P", ItemsField: "xs", ResultField: "ys", Join: JoinEnvelope, Iter: each},
		{Name: "P", Kind: KindParallel, Branches: []*Node{task("FromPrev", ""), entryBranch, noneBranch}},
	}}, &Stages{}, `{"xs":["a","b"]}`)
	if err != nil {
		t.Fatal(err)
	}
	ys := fmt.Sprintf(`{"ys":[%s,%s]}`, answer("Each", `"a"`), answer("Each", `"b"`))
	wantLog(t, log,
		`fan [Each "a", Each "b"]`,
		`fan [FromPrev `+ys+`, FromEntry {"xs":["a","b"]}, FromNone ]`)
	want := fmt.Sprintf("[%s,%s,%s]", answer("FromPrev", ys), answer("FromEntry", `{"xs":["a","b"]}`), answer("FromNone", ""))
	if out != want {
		t.Errorf("output %s, want %s", out, want)
	}
}

func TestRunPureTaskNeverReachesBackend(t *testing.T) {
	st := &Stages{Tasks: map[string]StageFn{
		"upper": func(a Act, in []byte) ([]byte, error) {
			if a != nil {
				t.Error("a pure stage was given an Act")
			}
			return []byte(strings.ToUpper(string(in))), nil
		},
	}}
	out, log, err := runScripted(t, &Graph{Class: Mono, Start: "P", Nodes: []*Node{
		{Name: "P", Kind: KindTask, Pure: true, Stage: "upper"},
	}}, st, "abc")
	if err != nil {
		t.Fatal(err)
	}
	wantLog(t, log)
	if out != "ABC" {
		t.Errorf("output %s, want ABC", out)
	}
}

func TestRunRejectsWideFanOutBeforeAnyCall(t *testing.T) {
	st := &Stages{Fans: map[string]FanFn{
		"wide": func([]byte) ([][]byte, error) { return make([][]byte, MaxFanOut+1), nil },
	}}
	for _, serial := range []bool{false, true} {
		_, log, err := runScripted(t, &Graph{Class: Mono, Start: "A", Nodes: []*Node{
			task("A", "M"),
			{Name: "M", Kind: KindMap, Fan: "wide", Serial: serial, Iter: task("Each", "")},
		}}, st, "x")
		if err == nil || !strings.Contains(err.Error(), "exceeds limit") {
			t.Fatalf("serial=%v: err = %v, want a fan-out limit error", serial, err)
		}
		wantLog(t, log, "call A x")
	}
}

func TestRunStopsAtBackendError(t *testing.T) {
	_, log, err := runScripted(t, &Graph{Class: Mono, Start: "A", Nodes: []*Node{
		task("A", "Fail"), task("Fail", "C"), task("C", ""),
	}}, nil, "x")
	if !errors.Is(err, errScripted) {
		t.Fatalf("err = %v, want the backend's error", err)
	}
	wantLog(t, log, "call A x", "call Fail "+string(answer("A", "x")))

	_, log, err = runScripted(t, &Graph{Class: Mono, Start: "P", Nodes: []*Node{
		{Name: "P", Kind: KindParallel, Next: "C", Branches: []*Node{task("B", ""), task("Fail", "")}},
		task("C", ""),
	}}, nil, "x")
	if !errors.Is(err, errScripted) {
		t.Fatalf("fan-out: err = %v, want the backend's error", err)
	}
	wantLog(t, log, "fan [B x, Fail x]")
}
