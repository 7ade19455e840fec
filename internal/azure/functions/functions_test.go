package functions

import (
	"testing"
	"time"

	"statebench/internal/cloud/queue"
	"statebench/internal/obs/tseries"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// peakReady is the most ready instances the host's warm-pool gauge
// saw in any window.
func peakReady(tl *tseries.Series) int64 {
	var peak int64
	for _, i := range tl.Indices() {
		peak = max(peak, tl.At(i).WarmPool)
	}
	return peak
}

// fixedParams makes the host deterministic for exact assertions.
func fixedParams() platform.AzureParams {
	p := platform.DefaultAzure()
	p.HTTPTriggerRTT = sim.Fixed{D: 10 * time.Millisecond}
	p.InstanceColdStart = sim.Fixed{D: time.Second}
	p.Dispatch = sim.Fixed{D: 5 * time.Millisecond}
	p.ScaleEvalInterval = 2 * time.Second
	p.ScaleOutStep = 1
	p.MaxInstances = 4
	p.IdleInstanceTimeout = time.Minute
	p.ColdPollPhase = sim.Fixed{D: 10 * time.Second}
	return p
}

func busyFn(d time.Duration) Handler {
	return func(ctx *Context, payload []byte) ([]byte, error) {
		ctx.Busy(d)
		return payload, nil
	}
}

func TestRegisterValidation(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams())
	if _, err := h.Register(Config{Name: "", Handler: busyFn(0)}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := h.Register(Config{Name: "f"}); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := h.Register(Config{Name: "f", Handler: busyFn(0), ConsumedMemMB: 9999}); err == nil {
		t.Fatal("over-limit memory accepted")
	}
	if _, err := h.Register(Config{Name: "f", Handler: busyFn(0)}); err != nil {
		t.Fatalf("valid register failed: %v", err)
	}
	if _, err := h.Register(Config{Name: "f", Handler: busyFn(0)}); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestHTTPInvokeColdThenWarm(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams())
	h.MustRegister(Config{Name: "f", ConsumedMemMB: 256, Handler: busyFn(100 * time.Millisecond)})
	var first, second Result
	k.Spawn("client", func(p *sim.Proc) {
		var err error
		first, err = h.InvokeHTTP(p, "f", []byte("x"))
		if err != nil {
			t.Errorf("invoke: %v", err)
		}
		second, err = h.InvokeHTTP(p, "f", []byte("y"))
		if err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	h.Stop()
	k.Run()
	if !first.Cold {
		t.Fatal("first invoke should be cold")
	}
	if first.SchedDelay != time.Second {
		t.Fatalf("first sched delay = %v, want 1s instance cold start", first.SchedDelay)
	}
	if second.Cold || second.SchedDelay != 0 {
		t.Fatalf("second invoke should be warm immediate, got %+v", second)
	}
	if string(second.Output) != "y" {
		t.Fatalf("output = %q", second.Output)
	}
}

func TestScaleControllerAddsInstancesGradually(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams()) // step 1 per 2s, max 4
	tl := tseries.New(0)
	h.SetTimeline(tl)
	h.MustRegister(Config{Name: "slow", Handler: busyFn(20 * time.Second)})
	futs := make([]*sim.Future[Result], 4)
	k.Spawn("client", func(p *sim.Proc) {
		for i := range futs {
			f, err := h.SubmitCtx("slow", nil, sim.TraceContext{})
			if err != nil {
				t.Errorf("submit: %v", err)
				return
			}
			futs[i] = f
		}
		for _, f := range futs {
			if _, err := f.Await(p); err != nil {
				t.Errorf("await: %v", err)
			}
		}
	})
	k.Run()
	delays := h.Stats().SchedDelays
	if len(delays) != 4 {
		t.Fatalf("got %d sched delays", len(delays))
	}
	// First instance starts immediately (1s cold). Controller adds one
	// instance per 2s tick afterwards: delays must be strictly staggered.
	if delays[0] != time.Second {
		t.Fatalf("first delay = %v", delays[0])
	}
	for i := 1; i < 4; i++ {
		if delays[i] <= delays[i-1] {
			t.Fatalf("delays not staggered by gradual scale-out: %v", delays)
		}
	}
	if n := peakReady(tl); n != 4 {
		t.Fatalf("max ready = %d, want 4", n)
	}
}

func TestMaxInstancesCap(t *testing.T) {
	k := sim.NewKernel(1)
	p := fixedParams()
	p.MaxInstances = 2
	h := NewHost(k, "app", p)
	tl := tseries.New(0)
	h.SetTimeline(tl)
	h.MustRegister(Config{Name: "slow", Handler: busyFn(5 * time.Second)})
	completed := 0
	k.Spawn("client", func(pr *sim.Proc) {
		var futs []*sim.Future[Result]
		for i := 0; i < 6; i++ {
			f, _ := h.SubmitCtx("slow", nil, sim.TraceContext{})
			futs = append(futs, f)
		}
		for _, f := range futs {
			if r, err := f.Await(pr); err != nil || r.Err != nil {
				t.Errorf("await: %v %v", err, r.Err)
			} else {
				completed++
			}
		}
	})
	k.Run()
	if n := peakReady(tl); n > 2 {
		t.Fatalf("max ready = %d, exceeds cap 2", n)
	}
	// 6 jobs, 2 instances, 5s each => at least 3 serial rounds.
	if completed != 6 {
		t.Fatalf("completed = %d", completed)
	}
}

func TestInstanceReuseDrainsQueueWithoutNewColdStarts(t *testing.T) {
	k := sim.NewKernel(1)
	p := fixedParams()
	p.ScaleEvalInterval = time.Hour // controller effectively off
	h := NewHost(k, "app", p)
	h.MustRegister(Config{Name: "f", Handler: busyFn(100 * time.Millisecond)})
	done, cold := 0, 0
	k.Spawn("client", func(pr *sim.Proc) {
		var futs []*sim.Future[Result]
		for i := 0; i < 5; i++ {
			f, _ := h.SubmitCtx("f", nil, sim.TraceContext{})
			futs = append(futs, f)
		}
		for _, f := range futs {
			r, _ := f.Await(pr)
			if r.Err == nil {
				done++
			}
			if r.Cold {
				cold++
			}
		}
	})
	k.RunUntil(time.Hour / 2)
	if done != 5 {
		t.Fatalf("done = %d, want 5 (single instance should drain the queue)", done)
	}
	if cold != 1 {
		t.Fatalf("cold starts = %d, want 1", cold)
	}
}

func TestIdleInstancesReaped(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams()) // idle timeout 1 min
	h.MustRegister(Config{Name: "f", Handler: busyFn(10 * time.Millisecond)})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := h.InvokeHTTP(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	k.Run() // runs until idle reaping completes and no events remain
	if n := h.pool.Provisioning(); n != 0 {
		t.Fatalf("provisioned instances = %d after idle timeout, want 0", n)
	}
}

func TestAzureBillingOnConsumedMemory(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams())
	f := h.MustRegister(Config{Name: "f", ConsumedMemMB: 300, Handler: busyFn(2 * time.Second)})
	k.Spawn("client", func(p *sim.Proc) {
		if _, err := h.InvokeHTTP(p, "f", nil); err != nil {
			t.Errorf("invoke: %v", err)
		}
	})
	h.Stop()
	k.Run()
	want := 2 * 384.0 / 1024 // 2s at 300->384 MB
	if d := f.Meter.BilledGBs - want; d > 1e-9 || d < -1e-9 {
		t.Fatalf("BilledGBs = %v, want %v", f.Meter.BilledGBs, want)
	}
	if f.Meter.Invocations != 1 {
		t.Fatalf("execs = %d", f.Meter.Invocations)
	}
}

func TestQueueTriggerExecutesAndBillsPolls(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams())
	var got []byte
	h.MustRegister(Config{Name: "f", Handler: func(ctx *Context, payload []byte) ([]byte, error) {
		got = payload
		return nil, nil
	}})
	q := queue.New(k, "trigger", queue.DefaultParams())
	if err := h.QueueTrigger(q, "f"); err != nil {
		t.Fatal(err)
	}
	k.At(5*time.Second, func() {
		if err := q.EnqueueFromKernelCtx([]byte("msg"), 3, sim.TraceContext{}); err != nil {
			t.Error(err)
		}
	})
	k.At(40*time.Second, func() { h.Stop() })
	k.Run()
	if string(got) != "msg" {
		t.Fatalf("queue trigger did not run: %q", got)
	}
	if q.Stats().EmptyPolls < 3 {
		t.Fatalf("empty polls = %d; idle polling must be metered", q.Stats().EmptyPolls)
	}
}

func TestQueueTriggerBackoffFollowsTriggerMaxPoll(t *testing.T) {
	// A minute idle at 5 ms per poll. The waits double from 100 ms to
	// the cap: with a 1 s cap, polls end at 5, 110, 315, 720 ms and then
	// every 1.005 s from 1.525 s; with 10 s, at 5, 110, 315, 720 ms,
	// 1.525, 3.13, 6.335, 12.74 s and then every 10.005 s.
	for _, c := range []struct {
		maxPoll time.Duration
		want    int64
	}{{time.Second, 63}, {10 * time.Second, 12}} {
		k := sim.NewKernel(1)
		params := fixedParams()
		params.TriggerMaxPoll = c.maxPoll
		h := NewHost(k, "app", params)
		h.MustRegister(Config{Name: "f", Handler: busyFn(0)})
		qp := queue.DefaultParams()
		qp.OpLatency = sim.Fixed{D: 5 * time.Millisecond}
		q := queue.New(k, "trigger", qp)
		if err := h.QueueTrigger(q, "f"); err != nil {
			t.Fatal(err)
		}
		k.At(time.Minute, h.Stop)
		k.Run()
		if got := q.Stats().EmptyPolls; got != c.want {
			t.Errorf("TriggerMaxPoll %v: %d empty polls in a minute, want %d", c.maxPoll, got, c.want)
		}
	}
}

func TestQueueTriggerColdPollPhase(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams()) // ColdPollPhase fixed 10s
	var ranAt time.Duration
	h.MustRegister(Config{Name: "f", Handler: func(ctx *Context, payload []byte) ([]byte, error) {
		ranAt = ctx.Proc().Now()
		return nil, nil
	}})
	q := queue.New(k, "trigger", queue.DefaultParams())
	if err := h.QueueTrigger(q, "f"); err != nil {
		t.Fatal(err)
	}
	k.At(time.Second, func() {
		if err := q.EnqueueFromKernelCtx([]byte("m"), 1, sim.TraceContext{}); err != nil {
			t.Error(err)
		}
	})
	k.At(2*time.Minute, func() { h.Stop() })
	k.Run()
	// Cold path: poll finds message, + 10s activation + 1s instance start.
	if ranAt < 12*time.Second {
		t.Fatalf("ran at %v; cold-poll activation phase missing", ranAt)
	}
}

func TestStopTerminatesListeners(t *testing.T) {
	k := sim.NewKernel(1)
	h := NewHost(k, "app", fixedParams())
	h.MustRegister(Config{Name: "f", Handler: busyFn(0)})
	q := queue.New(k, "trigger", queue.DefaultParams())
	if err := h.QueueTrigger(q, "f"); err != nil {
		t.Fatal(err)
	}
	k.At(time.Minute, func() { h.Stop() })
	end := k.Run() // must terminate
	if end > 2*time.Minute {
		t.Fatalf("kernel ran to %v after Stop", end)
	}
}
