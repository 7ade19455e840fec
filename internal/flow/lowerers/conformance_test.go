package lowerers

// Cross-style conformance for the IR's control nodes: one definition
// with a choice, a wait, a serial map and a parallel runs on every
// orchestrating style, and each must return the same output. The
// shipped workloads use no choice or wait node, so this is the only
// run of them through a lowering.

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"statebench/internal/azure/netherite"
	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/gcp"
	"statebench/internal/sim"
)

// confWait is the definition's wait, in seconds.
const confWait = 2.5

// confDef builds the probe. Measure emits {"size":7}; Route's first
// case reads the absent field n, so every style must skip it and take
// the size case to Big. Big's three items are doubled one at a time,
// summed and counted in parallel, and Report merges the two branch
// outputs. prefix spells the choice fields ("$." or bare).
func confDef(prefix string) *flow.Definition {
	lt, gte := 5.0, 5.0
	task := func(name, next string) *flow.Node {
		return &flow.Node{Name: name, Kind: flow.KindTask, Next: next, Fn: "conf-" + strings.ToLower(name), Stage: name}
	}
	graph := func(class flow.Class) *flow.Graph {
		return &flow.Graph{
			Class: class,
			Start: "Measure",
			Nodes: []*flow.Node{
				task("Measure", "Route"),
				{Name: "Route", Kind: flow.KindChoice, Cases: []flow.ChoiceCase{
					{Var: prefix + "n", NumLT: &lt, To: "Small"},
					{Var: prefix + "size", NumGTE: &gte, To: "Big"},
				}, Default: "Small"},
				task("Small", "Pause"),
				task("Big", "Pause"),
				{Name: "Pause", Kind: flow.KindWait, WaitSeconds: confWait, Next: "Each"},
				{
					Name: "Each", Kind: flow.KindMap, Next: "Both", Serial: true,
					ItemsField: "items", ResultField: "items", Join: flow.JoinEnvelope,
					Iter: task("Double", ""),
				},
				{
					Name: "Both", Kind: flow.KindParallel, Next: "Report",
					Branches: []*flow.Node{task("Sum", ""), task("Count", "")},
				},
				task("Report", ""),
			},
			Variants:    []string{"", "n"},
			MachineName: "conf",
		}
	}
	return &flow.Definition{
		Name: "conf",
		Graphs: map[flow.Class]*flow.Graph{
			flow.Machine:     graph(flow.Machine),
			flow.DurableOrch: graph(flow.DurableOrch),
		},
		Bind: func(flow.Binding) (*flow.Stages, error) { return confStages(), nil },
		Entry: func(_ flow.Class, run int64) []byte {
			return []byte(fmt.Sprintf(`{"run":%d}`, run))
		},
		EntryMap: func(run int64) map[string]any { return map[string]any{"run": float64(run)} },
	}
}

// confStages binds the probe's stages; each spends 10 ms of simulated
// work, and each output is a JSON document whatever the style.
func confStages() *flow.Stages {
	type items struct {
		Items []float64 `json:"items"`
	}
	stage := func(fn func(in []byte) (any, error)) flow.StageFn {
		return func(a flow.Act, in []byte) ([]byte, error) {
			a.Busy(10 * time.Millisecond)
			out, err := fn(in)
			if err != nil {
				return nil, err
			}
			return json.Marshal(out)
		}
	}
	fixed := func(v any) flow.StageFn { return stage(func([]byte) (any, error) { return v, nil }) }
	return &flow.Stages{Tasks: map[string]flow.StageFn{
		"Measure": fixed(map[string]any{"size": 7}),
		"Small":   fixed(items{Items: []float64{1}}),
		"Big":     fixed(items{Items: []float64{10, 20, 30}}),
		"Double": stage(func(in []byte) (any, error) {
			var x float64
			err := json.Unmarshal(in, &x)
			return 2 * x, err
		}),
		"Sum": stage(func(in []byte) (any, error) {
			var doc items
			err := json.Unmarshal(in, &doc)
			sum := 0.0
			for _, x := range doc.Items {
				sum += x
			}
			return map[string]any{"sum": sum}, err
		}),
		"Count": stage(func(in []byte) (any, error) {
			var doc items
			err := json.Unmarshal(in, &doc)
			return map[string]any{"count": len(doc.Items)}, err
		}),
		"Report": stage(func(in []byte) (any, error) {
			var parts []map[string]any
			err := json.Unmarshal(in, &parts)
			merged := map[string]any{}
			for _, p := range parts {
				for k, v := range p {
					merged[k] = v
				}
			}
			return merged, err
		}),
	}}
}

// TestChoiceAndWaitMeanTheSameOnEveryStyle runs the probe once on each
// orchestrating style, with the choice fields spelled both ways, and
// demands Big's result and an end-to-end time covering the wait.
func TestChoiceAndWaitMeanTheSameOnEveryStyle(t *testing.T) {
	const want = `{"count":3,"sum":120}`
	for _, spelling := range []struct{ name, prefix string }{{"dollar", "$."}, {"bare", ""}} {
		def := confDef(spelling.prefix)
		if err := flow.Validate(def); err != nil {
			t.Fatalf("probe definition is invalid: %v", err)
		}
		for _, impl := range []core.Impl{core.AWSStep, gcp.Wflow, core.AzDorch, netherite.Dorch} {
			t.Run(string(impl)+"/"+spelling.name, func(t *testing.T) {
				env := core.NewEnv(11)
				d, err := flow.Deploy(env, def, impl)
				if err != nil {
					t.Fatalf("deploy: %v", err)
				}
				var stats core.RunStats
				env.K.Spawn("conf", func(p *sim.Proc) {
					defer env.Stop()
					stats, err = d.Runner.Invoke(p, nil)
				})
				env.K.Run()
				if err == nil {
					err = stats.Err
				}
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if string(stats.Output) != want {
					t.Errorf("output %s, want %s", stats.Output, want)
				}
				if wait := time.Duration(confWait * float64(time.Second)); stats.E2E < wait {
					t.Errorf("E2E %v is shorter than the %v wait", stats.E2E, wait)
				}
			})
		}
	}
}
