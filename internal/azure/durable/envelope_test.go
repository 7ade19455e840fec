package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/chaos"
	"statebench/internal/cloud/queue"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// recordingStore is the classic store with every envelope the hub
// sends through it recorded.
type recordingStore struct {
	*classicStore
	sent []Envelope
}

func (r *recordingStore) SendControl(m Envelope) error {
	r.sent = append(r.sent, m)
	return r.classicStore.SendControl(m)
}

func (r *recordingStore) SendControlFromProc(p *sim.Proc, m Envelope) error {
	r.sent = append(r.sent, m)
	return r.classicStore.SendControlFromProc(p, m)
}

func (r *recordingStore) SendWork(m Envelope) error {
	r.sent = append(r.sent, m)
	return r.classicStore.SendWork(m)
}

// checkEnvelope requires m to survive a JSON round trip unchanged
// (nil and empty byte slices count as equal), so that a receiver gets
// what decoding m's JSON would give, and its size bound to cover its
// JSON length, so that the payload limit sees no less.
func checkEnvelope(t *testing.T, m Envelope) {
	t.Helper()
	body, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("marshal %+v: %v", m, err)
	}
	if b := m.sizeBound(); b < len(body) {
		t.Errorf("sizeBound() = %d < JSON length %d for %+v", b, len(body), m)
	}
	var back Envelope
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	norm := func(e Envelope) Envelope {
		if len(e.Input) == 0 {
			e.Input = nil
		}
		if len(e.Result) == 0 {
			e.Result = nil
		}
		return e
	}
	if !reflect.DeepEqual(norm(back), norm(m)) {
		t.Errorf("JSON round trip changed the envelope:\n  sent: %+v\n  back: %+v", m, back)
	}
}

// TestEnvelopesSurviveJSON runs the package's scenarios on a classic
// hub whose store records every envelope sent — fan-out, entity calls
// and signals, sub-orchestrations, external events, timers and failing
// activities — fault-free and under a chaos plan of queue duplicates
// and episode crashes, and checks each envelope with checkEnvelope.
func TestEnvelopesSurviveJSON(t *testing.T) {
	plans := map[string]*chaos.Plan{
		"fault-free": nil,
		"chaos": {
			RedeliveryDelay: 2 * time.Second,
			Rules: []chaos.Rule{
				{Component: "queue", Kind: chaos.Duplicate, Rate: 0.2},
				{Component: "durable", Kind: chaos.Crash, Rate: 0.1},
				{Component: "durable", Kind: chaos.CrashAfterPersist, Rate: 0.1},
			},
		},
	}
	for name, plan := range plans {
		t.Run(name, func(t *testing.T) {
			k := sim.NewKernel(7)
			params := platform.DefaultAzure()
			params.ScaleEvalInterval = 2 * time.Second
			params.EntityOpOverhead = sim.Fixed{D: 20 * time.Millisecond}
			params.EntityStateRTT = sim.Fixed{D: 20 * time.Millisecond}
			host := functions.NewHost(k, "app", params)
			store := &recordingStore{classicStore: newClassicStore(k, "hub", params)}
			hub := NewHubWithStore(k, host, "hub", store)
			var inj *chaos.Injector
			if plan != nil {
				inj = chaos.NewInjector(k, plan)
				hub.SetChaos(inj)
			}
			client := NewClient(hub)
			registerEnvelopeScenarios(t, hub)
			counter := EntityID{Name: "Counter", Key: "c<1>"}
			drive(k, host, func(p *sim.Proc) {
				for _, run := range []struct {
					orch    string
					in, out string
					err     string
				}{
					{orch: "fan", in: `"x"`, out: "8"},
					{orch: "parent", out: `AB|"Ü <&>"|`},
					{orch: "counter", out: "12"},
					{orch: "sleepy", out: "woke"},
					{orch: "failing", err: fmt.Sprintf("bad input %q <&>\x01", `"\`)},
				} {
					out, _, err := client.Run(p, run.orch, []byte(run.in))
					if run.err != "" {
						if err == nil || !strings.Contains(err.Error(), run.err) {
							t.Errorf("%s: err = %v, want one containing %q", run.orch, err, run.err)
						}
						continue
					}
					if err != nil || string(out) != run.out {
						t.Errorf("%s = %s, %v; want %s", run.orch, out, err, run.out)
					}
				}
				if err := client.SignalEntity(p, counter, "add", []byte("30")); err != nil {
					t.Errorf("signal: %v", err)
				}
				hd, err := client.StartOrchestration(p, "waiter", nil)
				if err != nil {
					t.Errorf("start waiter: %v", err)
					return
				}
				p.Sleep(5 * time.Second)
				if err := client.RaiseEvent(p, hd.ID, "Approval", []byte("yes")); err != nil {
					t.Errorf("raise: %v", err)
				}
				if out, err := hd.Wait(p); err != nil || string(out) != "approved:yes" {
					t.Errorf("waiter = %s, %v; want approved:yes", out, err)
				}
				p.Sleep(time.Minute) // let the signal and any duplicates land
			})
			if plan != nil && inj.Stats().Injected == 0 {
				t.Error("the chaos plan injected no fault")
			}
			kinds := map[string]int{}
			for _, m := range store.sent {
				checkEnvelope(t, m)
				kinds[m.Kind]++
			}
			for _, kind := range []string{kindExecutionStarted, "Activity", kindTaskCompleted, kindTaskFailed,
				kindTimerFired, kindEntityOp, kindEntityResponse, kindSubOrchCompleted, kindEventRaised} {
				if kinds[kind] == 0 {
					t.Errorf("no %s envelope sent (sent %v)", kind, kinds)
				}
			}
		})
	}
}

// TestEmptyPayloadsArriveNil sends empty, non-nil activity inputs and
// results through the classic hub. Receivers must get nil, as decoding
// the envelopes' JSON gave: the activity its input, and the
// orchestrator the result in the episode where it arrives, so that
// joining the results as JSON (flow.JoinOutputs) reads null.
func TestEmptyPayloadsArriveNil(t *testing.T) {
	k, host, hub, client := fixture()
	var inputs [][]byte
	if err := hub.RegisterActivity("empty", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		inputs = append(inputs, in)
		ctx.Busy(10 * time.Millisecond)
		return []byte{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("o", 128, func(ctx *OrchestrationContext, _ []byte) ([]byte, error) {
		outs, err := ctx.WaitAll(ctx.CallActivity("empty", []byte{}), ctx.CallActivity("empty", []byte{}))
		if err != nil {
			return nil, err
		}
		raws := make([]json.RawMessage, len(outs))
		for i, o := range outs {
			raws[i] = json.RawMessage(o)
		}
		return json.Marshal(raws)
	}); err != nil {
		t.Fatal(err)
	}
	drive(k, host, func(p *sim.Proc) {
		if out, _, err := client.Run(p, "o", nil); err != nil || string(out) != "[null,null]" {
			t.Errorf("o = %s, %v; want [null,null]", out, err)
		}
	})
	if len(inputs) != 2 {
		t.Fatalf("%d activity runs, want 2", len(inputs))
	}
	for i, in := range inputs {
		if in != nil {
			t.Errorf("activity run %d got input %#v, want nil", i, in)
		}
	}
}

// registerEnvelopeScenarios installs the workloads of
// TestEnvelopesSurviveJSON. Payloads and errors carry the characters
// JSON escapes.
func registerEnvelopeScenarios(t *testing.T, hub *Hub) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(hub.RegisterActivity("echo", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(100 * time.Millisecond)
		return in, nil
	}))
	must(hub.RegisterActivity("upper", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(10 * time.Millisecond)
		return bytes.ToUpper(in), nil
	}))
	must(hub.RegisterActivity("reject", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		return nil, fmt.Errorf("bad input %q <&>\x01", in)
	}))
	must(hub.RegisterEntity("Counter", 128, func(ctx *EntityContext, op string, input []byte) ([]byte, error) {
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
	}))
	must(hub.RegisterOrchestrator("fan", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		tasks := make([]*Task, 8)
		for i := range tasks {
			in := input
			if i%2 == 1 {
				in = []byte{} // empty, sent as an empty slice
			}
			tasks[i] = ctx.CallActivity("echo", in)
		}
		outs, err := ctx.WaitAll(tasks...)
		return []byte(fmt.Sprint(len(outs))), err
	}))
	must(hub.RegisterOrchestrator("child", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		return ctx.CallActivity("upper", input).Await()
	}))
	must(hub.RegisterOrchestrator("parent", 128, func(ctx *OrchestrationContext, _ []byte) ([]byte, error) {
		outs, err := ctx.WaitAll(
			ctx.CallSubOrchestrator("child", []byte("ab")),
			ctx.CallSubOrchestrator("child", []byte("\"ü <&>\"")),
			ctx.CallSubOrchestrator("child", nil))
		if err != nil {
			return nil, err
		}
		return bytes.Join(outs, []byte("|")), nil
	}))
	must(hub.RegisterOrchestrator("counter", 128, func(ctx *OrchestrationContext, _ []byte) ([]byte, error) {
		id := EntityID{Name: "Counter", Key: "c<1>"}
		for _, d := range []string{"5", "7"} {
			if _, err := ctx.CallEntity(id, "add", []byte(d)).Await(); err != nil {
				return nil, err
			}
		}
		return ctx.CallEntity(id, "get", nil).Await()
	}))
	must(hub.RegisterOrchestrator("sleepy", 128, func(ctx *OrchestrationContext, _ []byte) ([]byte, error) {
		if _, err := ctx.CreateTimer(30 * time.Second).Await(); err != nil {
			return nil, err
		}
		return []byte("woke"), nil
	}))
	must(hub.RegisterOrchestrator("failing", 128, func(ctx *OrchestrationContext, _ []byte) ([]byte, error) {
		return ctx.CallActivity("reject", []byte(`"\`)).Await()
	}))
	must(hub.RegisterOrchestrator("waiter", 128, func(ctx *OrchestrationContext, _ []byte) ([]byte, error) {
		v, err := ctx.WaitForExternalEvent("Approval").Await()
		if err != nil {
			return nil, err
		}
		return append([]byte("approved:"), v...), nil
	}))
}

// TestEnvelopeSizeAtQueueLimit sends envelopes whose JSON is 1 KB
// under, just under, exactly at and just over the task-hub queues'
// 256 KB limit through each send path of the classic store. Each must
// be accepted or rejected as the queue decided when it read the JSON
// body's length, and a rejection must report that length. The
// envelopes fill the limit with payload bytes, with plain strings (a
// size bound far over the JSON length) and with strings that JSON
// escapes to six bytes each (a bound close to it); 1 KB under, the
// payload's bound stays under the limit, and the other cases take the
// exact encoding.
func TestEnvelopeSizeAtQueueLimit(t *testing.T) {
	params := platform.DefaultAzure()
	limit := params.QueuePayloadLimit
	if limit != 256*1024 {
		t.Fatalf("QueuePayloadLimit = %d, want 256 KB", limit)
	}
	fills := map[string]func(n int) Envelope{
		"payload": func(n int) Envelope {
			return Envelope{Kind: kindTaskCompleted, Instance: "o-000001", TaskID: 3, Result: bytes.Repeat([]byte{0xfe}, n)}
		},
		"plain string": func(n int) Envelope {
			return Envelope{Kind: kindTaskFailed, Instance: "o-000001", Error: strings.Repeat("e", n)}
		},
		"escaped string": func(n int) Envelope {
			return Envelope{Kind: kindEventRaised, Instance: "o-000001", Name: strings.Repeat("<", n/6) + strings.Repeat("a", n%6)}
		},
	}
	for fill, build := range fills {
		for _, want := range []int{limit - 1024, limit - 7, limit - 1, limit, limit + 1, limit + 5} {
			m := sizedEnvelope(t, build, want)
			for _, path := range []string{"SendControl", "SendControlFromProc", "SendWork"} {
				k := sim.NewKernel(1)
				s := newClassicStore(k, "hub", params)
				var err error
				k.Spawn("send", func(p *sim.Proc) {
					switch path {
					case "SendControl":
						err = s.SendControl(m)
					case "SendControlFromProc":
						err = s.SendControlFromProc(p, m)
					default:
						err = s.SendWork(m)
					}
				})
				k.RunUntil(time.Second)
				what := fmt.Sprintf("%s of a %d-byte %s envelope", path, want, fill)
				var tooBig *queue.PayloadTooLargeError
				switch {
				case want <= limit && err != nil:
					t.Errorf("%s: %v, want accepted", what, err)
				case want > limit && !errors.As(err, &tooBig):
					t.Errorf("%s: err = %v, want a PayloadTooLargeError", what, err)
				case want > limit && (tooBig.Size != want || tooBig.Limit != limit):
					t.Errorf("%s: Size %d, Limit %d; want %d, %d", what, tooBig.Size, tooBig.Limit, want, limit)
				}
				enqueues := s.workItems.Stats().Enqueues
				for _, q := range s.control {
					enqueues += q.Stats().Enqueues
				}
				wantEnqueues := int64(0)
				if want <= limit {
					wantEnqueues = 1
				}
				if enqueues != wantEnqueues {
					t.Errorf("%s: %d enqueues, want %d", what, enqueues, wantEnqueues)
				}
			}
		}
	}
}

// sizedEnvelope returns a build(n), padded with an Op of plain
// letters, whose JSON is exactly want bytes long. The JSON length of
// build(n) grows with n.
func sizedEnvelope(t *testing.T, build func(n int) Envelope, want int) Envelope {
	t.Helper()
	size := func(m Envelope) int {
		body, _ := json.Marshal(m)
		return len(body)
	}
	lo, hi := 0, want // the largest n whose envelope fits in want
	for lo < hi {
		if mid := (lo + hi + 1) / 2; size(build(mid)) <= want {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	for n := lo; n >= 0 && n >= lo-8; n-- {
		m := build(n)
		// An Op of k letters adds `,"op":""` and the k letters.
		switch short := want - size(m); {
		case short == 0:
			return m
		case short > 8:
			m.Op = strings.Repeat("o", short-8)
			if size(m) == want {
				return m
			}
		}
	}
	t.Fatalf("no envelope of %d JSON bytes", want)
	return Envelope{}
}

// FuzzEnvelopeSize checks sizeBound against the JSON length over
// arbitrary envelopes.
func FuzzEnvelopeSize(f *testing.F) {
	long := strings.Repeat("abcdefgh", 512)
	f.Add("TaskCompleted", "o-000001", "work", "", "", "", []byte(nil), []byte{}, int64(3), int64(0), false, uint64(0), uint64(0))
	f.Add(long, long, long, long, long, long, bytes.Repeat([]byte{0xff}, 64<<10), []byte{}, int64(math.MinInt64), int64(math.MaxInt64), true, uint64(math.MaxUint64), uint64(math.MaxUint64))
	f.Add("<>&", "  ", "\x00\x01\x1f\x7f", "\b\f\n\r\t", `"\`, "é世🙂", []byte{}, []byte{0}, int64(-1), int64(math.MinInt64), true, uint64(1), uint64(math.MaxUint64))
	f.Add("\xff\xfe", "\xed\xa0\x80", "a\xc3", "\xe2\x80", strings.Repeat("<", 1000), strings.Repeat("\xff", 1000), []byte{1, 2}, []byte{1, 2, 3}, int64(0), int64(-42), false, uint64(0), uint64(1<<63))
	f.Fuzz(func(t *testing.T, kind, instance, name, op, errStr, caller string, input, result []byte,
		taskID, callerTask int64, signal bool, traceID, spanID uint64) {
		m := Envelope{Kind: kind, Instance: instance, TaskID: int(taskID), Name: name, Op: op, Input: input, Result: result,
			Error: errStr, Caller: caller, CallerTask: int(callerTask), Signal: signal, TraceID: traceID, SpanID: spanID}
		body, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if b := m.sizeBound(); b < len(body) {
			t.Fatalf("sizeBound() = %d < JSON length %d", b, len(body))
		}
	})
}
