package durable

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/cloud/queue"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// fixture builds a deterministic kernel + host + hub + client.
func fixture() (*sim.Kernel, *functions.Host, *Hub, *Client) {
	k := sim.NewKernel(1)
	params := platform.DefaultAzure()
	params.HTTPTriggerRTT = sim.Fixed{D: 10 * time.Millisecond}
	params.InstanceColdStart = sim.Fixed{D: 500 * time.Millisecond}
	params.Dispatch = sim.Fixed{D: 5 * time.Millisecond}
	params.ScaleEvalInterval = 2 * time.Second
	params.ScaleOutStep = 2
	params.MaxInstances = 20
	params.IdleInstanceTimeout = 10 * time.Minute
	params.EntityOpOverhead = sim.Fixed{D: 20 * time.Millisecond}
	params.EntityStateRTT = sim.Fixed{D: 20 * time.Millisecond}
	params.HistoryReplayPerEvent = 5 * time.Millisecond
	h := functions.NewHost(k, "app", params)
	hub := NewHub(k, h, "hub")
	return k, h, hub, NewClient(hub)
}

// drive runs fn on a client proc and then the kernel to completion,
// stopping the host so listeners terminate.
func drive(k *sim.Kernel, h *functions.Host, fn func(p *sim.Proc)) {
	k.Spawn("client", func(p *sim.Proc) {
		fn(p)
		h.Stop()
	})
	k.Run()
}

func TestActivityChainOrchestration(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterActivity("add1", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(50 * time.Millisecond)
		var n int
		if err := json.Unmarshal(in, &n); err != nil {
			return nil, err
		}
		return json.Marshal(n + 1)
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("chain", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		v := input
		for i := 0; i < 3; i++ {
			out, err := ctx.CallActivity("add1", v).Await()
			if err != nil {
				return nil, err
			}
			v = out
		}
		return v, nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, hd, err = client.Run(p, "chain", []byte("0"))
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if string(out) != "3" {
		t.Fatalf("output = %s, want 3", out)
	}
	if hd.Status() != StatusCompleted {
		t.Fatalf("status = %s", hd.Status())
	}
	if hd.ColdStart() <= 0 || hd.E2E() <= 0 {
		t.Fatalf("timings: cold=%v e2e=%v", hd.ColdStart(), hd.E2E())
	}
	// Replay model: 3 awaits -> at least 4 episodes (start + one per result).
	if hub.EpisodeCount < 4 {
		t.Fatalf("episodes = %d, want >= 4 (replay per completion)", hub.EpisodeCount)
	}
	// History persisted: ExecutionStarted + 3x(Scheduled+Completed) + ExecutionCompleted.
	if hub.HistoryTable().Len() != 8 {
		t.Fatalf("history rows = %d, want 8", hub.HistoryTable().Len())
	}
}

func TestReplayInflatesOrchestratorBilling(t *testing.T) {
	// An orchestrator with N sequential activities replays O(N) times,
	// re-processing a growing history each time, so the total number of
	// re-processed history events grows quadratically and billed GB-s
	// grows faster than the activity count. This is the Fig 11a
	// mechanism.
	episodeGBs := func(nActs int) (float64, int64) {
		k, host, hub, client := fixture()
		if err := hub.RegisterActivity("quick", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
			ctx.Busy(10 * time.Millisecond)
			return in, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := hub.RegisterOrchestrator("o", 512, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
			for i := 0; i < nActs; i++ {
				if _, err := ctx.CallActivity("quick", []byte("x")).Await(); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		drive(k, host, func(p *sim.Proc) {
			if _, _, err := client.Run(p, "o", nil); err != nil {
				t.Errorf("run: %v", err)
			}
		})
		f, _ := host.Function("o")
		return f.Meter.BilledGBs, hub.ReplayEvents
	}
	g2, r2 := episodeGBs(2)
	g8, r8 := episodeGBs(8)
	// 4x the activities must cost more than 4x the orchestrator GB-s
	// would if each activity were a constant-cost await (episodes scale
	// with activities AND each replays a longer history).
	if g8 < 3*g2 {
		t.Fatalf("orchestrator GB-s for 8 acts (%.4f) vs 2 acts (%.4f): replay inflation missing", g8, g2)
	}
	// The re-processed event count is the quadratic signature of replay.
	if r8 < 8*r2 {
		t.Fatalf("replayed events %d (8 acts) vs %d (2 acts): want quadratic growth", r8, r2)
	}
}

func TestFanOutFanIn(t *testing.T) {
	k, host, hub, client := fixture()
	tl := tseries.New(0)
	host.SetTimeline(tl)
	if err := hub.RegisterActivity("work", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(time.Second)
		return in, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("fan", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		var tasks []*Task
		for i := 0; i < 8; i++ {
			tasks = append(tasks, ctx.CallActivity("work", []byte(fmt.Sprintf("%d", i))))
		}
		outs, err := ctx.WaitAll(tasks...)
		if err != nil {
			return nil, err
		}
		return []byte(fmt.Sprintf("%d", len(outs))), nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, hd, err = client.Run(p, "fan", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if string(out) != "8" {
		t.Fatalf("out = %s", out)
	}
	// With scale controller adding 2 instances per 2s, 8 parallel 1s
	// tasks cannot finish in 1s — scheduling delay must appear.
	if hd.E2E() < 2*time.Second {
		t.Fatalf("fan-out E2E = %v; expected scale-controller induced delay", hd.E2E())
	}
	var peak int64
	for _, i := range tl.Indices() {
		peak = max(peak, tl.At(i).WarmPool)
	}
	if peak < 2 {
		t.Fatalf("scale-out never happened: max ready = %d", peak)
	}
}

func TestEntityStatePersistsAcrossOperations(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterEntity("Counter", 128, func(ctx *EntityContext, op string, input []byte) ([]byte, error) {
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
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("useCounter", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		id := EntityID{Name: "Counter", Key: "c1"}
		if _, err := ctx.CallEntity(id, "add", []byte("5")).Await(); err != nil {
			return nil, err
		}
		if _, err := ctx.CallEntity(id, "add", []byte("7")).Await(); err != nil {
			return nil, err
		}
		return ctx.CallEntity(id, "get", nil).Await()
	}); err != nil {
		t.Fatal(err)
	}
	var out, state []byte
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, _, err = client.Run(p, "useCounter", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
		state, _ = client.ReadEntityState(p, EntityID{Name: "Counter", Key: "c1"})
	})
	if string(out) != "12" {
		t.Fatalf("counter = %s, want 12", out)
	}
	if len(state) == 0 {
		t.Fatal("entity state not persisted")
	}
}

func TestEntityOperationsSerialized(t *testing.T) {
	// Two orchestrations hammer the same entity; ops must apply one at
	// a time (final count exact) even with concurrent callers.
	k, host, hub, client := fixture()
	if err := hub.RegisterEntity("Acc", 128, func(ctx *EntityContext, op string, input []byte) ([]byte, error) {
		var n int
		if ctx.HasState() {
			if err := json.Unmarshal(ctx.State(), &n); err != nil {
				return nil, err
			}
		}
		ctx.Busy(50 * time.Millisecond) // long op to force overlap pressure
		n++
		s, _ := json.Marshal(n)
		ctx.SetState(s)
		return s, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("bump", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		id := EntityID{Name: "Acc", Key: "shared"}
		for i := 0; i < 3; i++ {
			if _, err := ctx.CallEntity(id, "inc", nil).Await(); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	drive(k, host, func(p *sim.Proc) {
		h1, err := client.StartOrchestration(p, "bump", nil)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		h2, err := client.StartOrchestration(p, "bump", nil)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		if _, err := h1.Wait(p); err != nil {
			t.Errorf("h1: %v", err)
		}
		if _, err := h2.Wait(p); err != nil {
			t.Errorf("h2: %v", err)
		}
		state, ok := client.ReadEntityState(p, EntityID{Name: "Acc", Key: "shared"})
		if !ok || string(state) != "6" {
			t.Errorf("entity state = %s (ok=%v), want 6", state, ok)
		}
	})
}

func TestSubOrchestration(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterActivity("leaf", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(10 * time.Millisecond)
		return []byte(strings.ToUpper(string(in))), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("child", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		return ctx.CallActivity("leaf", input).Await()
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("parent", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		a := ctx.CallSubOrchestrator("child", []byte("ab"))
		b := ctx.CallSubOrchestrator("child", []byte("cd"))
		outs, err := ctx.WaitAll(a, b)
		if err != nil {
			return nil, err
		}
		return []byte(string(outs[0]) + string(outs[1])), nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, _, err = client.Run(p, "parent", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if string(out) != "ABCD" {
		t.Fatalf("out = %s", out)
	}
}

func TestDurableTimer(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterOrchestrator("sleepy", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		if _, err := ctx.CreateTimer(time.Minute).Await(); err != nil {
			return nil, err
		}
		return []byte("woke"), nil
	}); err != nil {
		t.Fatal(err)
	}
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		_, hd, err = client.Run(p, "sleepy", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if hd.E2E() < time.Minute {
		t.Fatalf("E2E = %v, want >= 1m timer", hd.E2E())
	}
}

func TestIdlePollingBillsTransactionsDuringTimer(t *testing.T) {
	// While the orchestrator sleeps on a 10-minute timer the hub's
	// pollers keep hitting the queues — billable idle transactions, the
	// Azure charge the paper criticizes.
	k, host, hub, client := fixture()
	if err := hub.RegisterOrchestrator("idle", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		if _, err := ctx.CreateTimer(10 * time.Minute).Await(); err != nil {
			return nil, err
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	drive(k, host, func(p *sim.Proc) {
		if _, _, err := client.Run(p, "idle", nil); err != nil {
			t.Errorf("run: %v", err)
		}
	})
	var emptyPolls int64
	for _, q := range hub.ControlQueues() {
		emptyPolls += q.Stats().EmptyPolls
	}
	emptyPolls += hub.WorkItemQueue().Stats().EmptyPolls
	// 10 min idle at 30s max poll across 5 listeners => >= ~80 polls.
	if emptyPolls < 50 {
		t.Fatalf("idle empty polls = %d, want >= 50", emptyPolls)
	}
}

func TestHTTPStartResetsIdleListenerBackoff(t *testing.T) {
	// After a minute idle every listener polls once per DurableMaxPoll
	// (1 s). The client's HTTP start must kick them all back to 100 ms,
	// including the listeners whose queues get no message: polls end
	// about 5, 110, 315, 720 and 1525 ms after the kick, so each queue
	// books at least five empty polls in the next 2 s, where the 1 s
	// cadence gives two to four.
	k, host, hub, client := fixture()
	if err := hub.RegisterOrchestrator("noop", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	queues := append([]*queue.Queue{hub.WorkItemQueue()}, hub.ControlQueues()...)
	before := make([]int64, len(queues))
	drive(k, host, func(p *sim.Proc) {
		p.Sleep(time.Minute)
		for i, q := range queues {
			before[i] = q.Stats().EmptyPolls
		}
		if _, err := client.StartOrchestration(p, "noop", nil); err != nil {
			t.Errorf("start: %v", err)
		}
		p.Sleep(time.Minute + 2*time.Second - p.Now())
		for i, q := range queues {
			if n := q.Stats().EmptyPolls - before[i]; n < 5 {
				t.Errorf("%s: %d empty polls in the 2 s after the start, want >= 5", q.Name(), n)
			}
		}
	})
}

func TestPayloadLimitFailsOrchestration(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterActivity("a", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		return in, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("big", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		return ctx.CallActivity("a", make([]byte, 65*1024)).Await()
	}); err != nil {
		t.Fatal(err)
	}
	var runErr error
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		_, hd, runErr = client.Run(p, "big", nil)
	})
	if runErr == nil || !strings.Contains(runErr.Error(), "exceeds") {
		t.Fatalf("err = %v, want payload limit failure", runErr)
	}
	if hd.Status() != StatusFailed {
		t.Fatalf("status = %s", hd.Status())
	}
}

func TestOversizedActivityResultFailsTask(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterActivity("bloat", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		return make([]byte, 100*1024), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("o", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		return ctx.CallActivity("bloat", nil).Await()
	}); err != nil {
		t.Fatal(err)
	}
	var runErr error
	drive(k, host, func(p *sim.Proc) { _, _, runErr = client.Run(p, "o", nil) })
	if runErr == nil || !strings.Contains(runErr.Error(), "exceeds") {
		t.Fatalf("err = %v, want oversized-result task failure", runErr)
	}
}

func TestActivityErrorPropagates(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterActivity("boom", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		return nil, fmt.Errorf("kaput")
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("o", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		return ctx.CallActivity("boom", nil).Await()
	}); err != nil {
		t.Fatal(err)
	}
	var runErr error
	drive(k, host, func(p *sim.Proc) { _, _, runErr = client.Run(p, "o", nil) })
	if runErr == nil || !strings.Contains(runErr.Error(), "kaput") {
		t.Fatalf("err = %v", runErr)
	}
}

func TestNondeterministicOrchestratorDetected(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterActivity("a", 128, func(ctx *functions.Context, in []byte) ([]byte, error) { return in, nil }); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterActivity("b", 128, func(ctx *functions.Context, in []byte) ([]byte, error) { return in, nil }); err != nil {
		t.Fatal(err)
	}
	episode := 0
	if err := hub.RegisterOrchestrator("flaky", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		episode++
		name := "a"
		if episode > 1 {
			name = "b" // differs on replay: nondeterminism
		}
		return ctx.CallActivity(name, nil).Await()
	}); err != nil {
		t.Fatal(err)
	}
	var runErr error
	drive(k, host, func(p *sim.Proc) { _, _, runErr = client.Run(p, "flaky", nil) })
	if runErr == nil || !strings.Contains(runErr.Error(), "non-deterministic") {
		t.Fatalf("err = %v, want nondeterminism detection", runErr)
	}
}

func TestSignalEntityFireAndForget(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterEntity("Log", 128, func(ctx *EntityContext, op string, input []byte) ([]byte, error) {
		ctx.SetState(append(ctx.State(), input...))
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	drive(k, host, func(p *sim.Proc) {
		if err := client.SignalEntity(p, EntityID{Name: "Log", Key: "l"}, "append", []byte("x")); err != nil {
			t.Errorf("signal: %v", err)
		}
		if err := client.SignalEntity(p, EntityID{Name: "Log", Key: "l"}, "append", []byte("y")); err != nil {
			t.Errorf("signal: %v", err)
		}
		p.Sleep(10 * time.Second)
		state, ok := client.ReadEntityState(p, EntityID{Name: "Log", Key: "l"})
		if !ok || string(state) != "xy" {
			t.Errorf("state = %q ok=%v", state, ok)
		}
	})
}

func TestColdStartUnderTwoSecondsWarmPath(t *testing.T) {
	// The paper's Fig 10: durable orchestrator cold start is under ~2s.
	k, host, hub, client := fixture()
	if err := hub.RegisterOrchestrator("quick", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		_, hd, err = client.Run(p, "quick", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if hd.ColdStart() > 2*time.Second {
		t.Fatalf("cold start = %v, want < 2s", hd.ColdStart())
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	runOnce := func() (time.Duration, int64) {
		k, host, hub, client := fixture()
		if err := hub.RegisterActivity("w", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
			ctx.Busy(100 * time.Millisecond)
			return in, nil
		}); err != nil {
			t.Fatal(err)
		}
		if err := hub.RegisterOrchestrator("o", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
			t1 := ctx.CallActivity("w", []byte("1"))
			t2 := ctx.CallActivity("w", []byte("2"))
			_, err := ctx.WaitAll(t1, t2)
			return nil, err
		}); err != nil {
			t.Fatal(err)
		}
		var hd *Handle
		drive(k, host, func(p *sim.Proc) {
			_, hd, _ = client.Run(p, "o", nil)
		})
		return hd.E2E(), hub.StorageTransactions()
	}
	e1, tx1 := runOnce()
	e2, tx2 := runOnce()
	if e1 != e2 || tx1 != tx2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", e1, tx1, e2, tx2)
	}
}
