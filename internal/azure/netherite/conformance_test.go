package netherite_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/azure/functions"
	"statebench/internal/sim"
)

// scenario is one Durable workload run identically against the classic
// and Netherite task hubs. The conformance test asserts both hubs
// produce the same orchestration output and the same final entity
// state: the store seam may change latency and billing, never results.
type scenario struct {
	name     string
	register func(t *testing.T, hub *durable.Hub)
	run      func(t *testing.T, p *sim.Proc, c *durable.Client) []byte
	want     string
	// entity, when set, is read back after run; its final state must
	// match wantState and agree across hubs.
	entity    *durable.EntityID
	wantState string
}

func mustRegActivity(t *testing.T, hub *durable.Hub, name string, fn func(ctx *functions.Context, in []byte) ([]byte, error)) {
	t.Helper()
	if err := hub.RegisterActivity(name, 128, fn); err != nil {
		t.Fatal(err)
	}
}

func mustRegOrch(t *testing.T, hub *durable.Hub, name string, fn func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error)) {
	t.Helper()
	if err := hub.RegisterOrchestrator(name, 128, fn); err != nil {
		t.Fatal(err)
	}
}

func mustRegEntity(t *testing.T, hub *durable.Hub, name string, fn func(ctx *durable.EntityContext, op string, input []byte) ([]byte, error)) {
	t.Helper()
	if err := hub.RegisterEntity(name, 128, fn); err != nil {
		t.Fatal(err)
	}
}

// runOrch is the common "start, await, check status" driver.
func runOrch(name string, input []byte) func(t *testing.T, p *sim.Proc, c *durable.Client) []byte {
	return func(t *testing.T, p *sim.Proc, c *durable.Client) []byte {
		out, hd, err := c.Run(p, name, input)
		if err != nil {
			t.Errorf("run %s: %v", name, err)
			return nil
		}
		if hd.Status() != durable.StatusCompleted {
			t.Errorf("%s status = %s, want Completed", name, hd.Status())
		}
		return out
	}
}

func registerAdd1(t *testing.T, hub *durable.Hub) {
	mustRegActivity(t, hub, "add1", func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(50 * time.Millisecond)
		var n int
		if err := json.Unmarshal(in, &n); err != nil {
			return nil, err
		}
		return json.Marshal(n + 1)
	})
}

func registerCounter(t *testing.T, hub *durable.Hub) {
	mustRegEntity(t, hub, "Counter", func(ctx *durable.EntityContext, op string, input []byte) ([]byte, error) {
		var n int
		if ctx.HasState() {
			if err := json.Unmarshal(ctx.State(), &n); err != nil {
				return nil, err
			}
		}
		switch op {
		case "add":
			var d int
			if err := json.Unmarshal(input, &d); err != nil {
				return nil, err
			}
			n += d
			s, _ := json.Marshal(n)
			ctx.SetState(s)
			return nil, nil
		case "get":
			return json.Marshal(n)
		}
		return nil, fmt.Errorf("unknown op %q", op)
	})
}

// conformanceScenarios is the shared table: every Durable feature the
// repo's scenarios exercise, once per hub.
func conformanceScenarios() []scenario {
	return []scenario{
		{
			name: "activity-chain",
			register: func(t *testing.T, hub *durable.Hub) {
				registerAdd1(t, hub)
				mustRegOrch(t, hub, "chain", func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
					v := input
					for i := 0; i < 3; i++ {
						out, err := ctx.CallActivity("add1", v).Await()
						if err != nil {
							return nil, err
						}
						v = out
					}
					return v, nil
				})
			},
			run:  runOrch("chain", []byte("0")),
			want: "3",
		},
		{
			name: "fan-out-fan-in",
			register: func(t *testing.T, hub *durable.Hub) {
				mustRegActivity(t, hub, "work", func(ctx *functions.Context, in []byte) ([]byte, error) {
					ctx.Busy(100 * time.Millisecond)
					return in, nil
				})
				mustRegOrch(t, hub, "fan", func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
					var tasks []*durable.Task
					for i := 0; i < 8; i++ {
						tasks = append(tasks, ctx.CallActivity("work", []byte(fmt.Sprintf("%d", i))))
					}
					outs, err := ctx.WaitAll(tasks...)
					if err != nil {
						return nil, err
					}
					return []byte(fmt.Sprintf("%d", len(outs))), nil
				})
			},
			run:  runOrch("fan", nil),
			want: "8",
		},
		{
			name: "wait-any-vs-timer",
			register: func(t *testing.T, hub *durable.Hub) {
				mustRegActivity(t, hub, "work", func(ctx *functions.Context, in []byte) ([]byte, error) {
					ctx.Busy(100 * time.Millisecond)
					return []byte("work"), nil
				})
				mustRegOrch(t, hub, "withTimeout", func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
					work := ctx.CallActivity("work", nil)
					timeout := ctx.CreateTimer(10 * time.Minute)
					if ctx.WaitAny(work, timeout) == 1 {
						return []byte("timeout"), nil
					}
					return work.Await()
				})
			},
			run:  runOrch("withTimeout", nil),
			want: "work",
		},
		{
			name: "durable-timer",
			register: func(t *testing.T, hub *durable.Hub) {
				mustRegOrch(t, hub, "sleepy", func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
					if _, err := ctx.CreateTimer(time.Minute).Await(); err != nil {
						return nil, err
					}
					return []byte("woke"), nil
				})
			},
			run:  runOrch("sleepy", nil),
			want: "woke",
		},
		{
			name: "external-event",
			register: func(t *testing.T, hub *durable.Hub) {
				mustRegOrch(t, hub, "approval", func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
					decision, err := ctx.WaitForExternalEvent("Approve").Await()
					if err != nil {
						return nil, err
					}
					return append([]byte("decided:"), decision...), nil
				})
			},
			run: func(t *testing.T, p *sim.Proc, c *durable.Client) []byte {
				hd, err := c.StartOrchestration(p, "approval", nil)
				if err != nil {
					t.Errorf("start: %v", err)
					return nil
				}
				p.Sleep(time.Minute)
				if err := c.RaiseEvent(p, hd.ID, "Approve", []byte("yes")); err != nil {
					t.Errorf("raise: %v", err)
					return nil
				}
				out, err := hd.Wait(p)
				if err != nil {
					t.Errorf("wait: %v", err)
				}
				return out
			},
			want: "decided:yes",
		},
		{
			name: "entity-signals",
			register: func(t *testing.T, hub *durable.Hub) {
				mustRegEntity(t, hub, "Log", func(ctx *durable.EntityContext, op string, input []byte) ([]byte, error) {
					ctx.SetState(append(ctx.State(), input...))
					return nil, nil
				})
			},
			run: func(t *testing.T, p *sim.Proc, c *durable.Client) []byte {
				id := durable.EntityID{Name: "Log", Key: "l"}
				for _, s := range []string{"x", "y"} {
					if err := c.SignalEntity(p, id, "append", []byte(s)); err != nil {
						t.Errorf("signal: %v", err)
						return nil
					}
				}
				p.Sleep(10 * time.Second)
				state, ok := c.ReadEntityState(p, id)
				if !ok {
					t.Error("entity has no state")
				}
				return state
			},
			want:      "xy",
			entity:    &durable.EntityID{Name: "Log", Key: "l"},
			wantState: "xy",
		},
		{
			name: "orchestrated-entity",
			register: func(t *testing.T, hub *durable.Hub) {
				registerCounter(t, hub)
				mustRegOrch(t, hub, "useCounter", func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
					id := durable.EntityID{Name: "Counter", Key: "c1"}
					if _, err := ctx.CallEntity(id, "add", []byte("5")).Await(); err != nil {
						return nil, err
					}
					if _, err := ctx.CallEntity(id, "add", []byte("7")).Await(); err != nil {
						return nil, err
					}
					return ctx.CallEntity(id, "get", nil).Await()
				})
			},
			run:       runOrch("useCounter", nil),
			want:      "12",
			entity:    &durable.EntityID{Name: "Counter", Key: "c1"},
			wantState: "12",
		},
		{
			name: "sub-orchestration",
			register: func(t *testing.T, hub *durable.Hub) {
				mustRegActivity(t, hub, "leaf", func(ctx *functions.Context, in []byte) ([]byte, error) {
					ctx.Busy(10 * time.Millisecond)
					return []byte(strings.ToUpper(string(in))), nil
				})
				mustRegOrch(t, hub, "child", func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
					return ctx.CallActivity("leaf", input).Await()
				})
				mustRegOrch(t, hub, "parent", func(ctx *durable.OrchestrationContext, input []byte) ([]byte, error) {
					a := ctx.CallSubOrchestrator("child", []byte("ab"))
					b := ctx.CallSubOrchestrator("child", []byte("cd"))
					outs, err := ctx.WaitAll(a, b)
					if err != nil {
						return nil, err
					}
					return []byte(string(outs[0]) + string(outs[1])), nil
				})
			},
			run:  runOrch("parent", nil),
			want: "ABCD",
		},
	}
}

// runScenario executes sc on e and returns the orchestration output and
// (if the scenario tracks one) the final entity state.
func runScenario(t *testing.T, e *env, sc scenario) (out, state []byte) {
	t.Helper()
	sc.register(t, e.hub)
	e.drive(func(p *sim.Proc) {
		out = sc.run(t, p, e.client)
		if sc.entity != nil {
			st, ok := e.client.ReadEntityState(p, *sc.entity)
			if !ok {
				t.Errorf("entity %s/%s has no final state", sc.entity.Name, sc.entity.Key)
			}
			state = st
		}
	})
	return out, state
}

// TestConformanceAcrossHubs runs every scenario against the classic
// storage task hub and against a Netherite hub, asserting identical
// orchestration outputs and final entity state on both.
func TestConformanceAcrossHubs(t *testing.T) {
	for _, sc := range conformanceScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			cOut, cState := runScenario(t, classicEnv(1, nil), sc)
			if string(cOut) != sc.want {
				t.Fatalf("classic output = %q, want %q", cOut, sc.want)
			}
			ne := netheriteEnv(1, nil)
			nOut, nState := runScenario(t, ne, sc)
			if string(nOut) != string(cOut) {
				t.Fatalf("netherite output = %q, classic = %q: hubs diverged", nOut, cOut)
			}
			if sc.entity != nil {
				if string(nState) != sc.wantState {
					t.Fatalf("netherite entity state = %q, want %q", nState, sc.wantState)
				}
				if string(nState) != string(cState) {
					t.Fatalf("entity state diverged: netherite %q vs classic %q", nState, cState)
				}
			}
			if ne.store.Transactions() == 0 {
				t.Fatal("netherite billed no group commits; the store was bypassed")
			}
		})
	}
}
