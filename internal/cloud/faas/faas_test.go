package faas_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"statebench/internal/aws"
	"statebench/internal/cloud/faas"
	"statebench/internal/gcp"
	"statebench/internal/obs/span"
	"statebench/internal/platform"
	"statebench/internal/sim"
)

// calibration is one provider's function service, built the way its
// cloud builds it, so every case checks the real name, RNG stream and
// memory rule as well as the shared mechanism.
type calibration struct {
	name string // subtest name
	comp string // span prefix, chaos component and error prefix
	// mem is a valid configured memory size, bigMem a larger one used
	// by the billing case, badMem one the memory rule rejects.
	mem, bigMem, badMem int
	badMemErr           string
	// coldBase is the fixed cold-start base of fixedParams.
	coldBase time.Duration
	params   platform.FaaSParams
	build    func(k *sim.Kernel, fp platform.FaaSParams) *faas.Service
}

var calibrations = []calibration{
	{
		name: "AWS", comp: "lambda",
		mem: 128, bigMem: 1536, badMem: 100,
		badMemErr: "lambda: memory 100 MB must be a positive multiple of 128",
		coldBase:  300 * time.Millisecond,
		params:    platform.DefaultAWS().FaaSParams,
		build: func(k *sim.Kernel, fp platform.FaaSParams) *faas.Service {
			p := platform.DefaultAWS()
			p.FaaSParams = fp
			return aws.New(k, p).Lambda
		},
	},
	{
		name: "GCP", comp: "gcf",
		mem: 256, bigMem: 2048, badMem: 300,
		badMemErr: "gcf: memory 300 MB is not a configurable tier [128 256 512 1024 2048 4096 8192]",
		coldBase:  500 * time.Millisecond,
		params:    platform.DefaultGCP().FaaSParams,
		build: func(k *sim.Kernel, fp platform.FaaSParams) *faas.Service {
			p := platform.DefaultGCP()
			p.FaaSParams = fp
			return gcp.New(k, p).Functions
		},
	},
}

// fixedParams makes every latency deterministic for exact assertions.
func (c calibration) fixedParams() platform.FaaSParams {
	p := c.params
	p.InvokeRTT = sim.Fixed{D: 10 * time.Millisecond}
	p.ColdStartBase = sim.Fixed{D: c.coldBase}
	p.CodeFetchBW = 50e6 // 50 MB/s
	p.WarmStart = sim.Fixed{D: 5 * time.Millisecond}
	p.KeepAlive = time.Minute
	p.BurstConcurrency = 2
	return p
}

// service builds the calibration's service on a fresh kernel with
// fixedParams.
func (c calibration) service() (*sim.Kernel, *faas.Service) {
	k := sim.NewKernel(1)
	return k, c.build(k, c.fixedParams())
}

// forEach runs test once per calibration, as subtests AWS and GCP.
func forEach(t *testing.T, test func(t *testing.T, c calibration)) {
	for _, c := range calibrations {
		t.Run(c.name, func(t *testing.T) { test(t, c) })
	}
}

func echo(ctx *faas.Context, payload []byte) ([]byte, error) {
	ctx.Busy(100 * time.Millisecond)
	return payload, nil
}

// billed returns the meter of executions of the given lengths at memMB,
// recorded in order.
func billed(memMB int, execs ...time.Duration) platform.Meter {
	var m platform.Meter
	for _, d := range execs {
		m.RecordAWS(d, memMB, memMB)
	}
	return m
}

func TestRegisterValidation(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		_, s := c.service()
		_, err := s.Register(faas.Config{Name: "f", MemoryMB: c.badMem, Handler: echo})
		if err == nil || err.Error() != c.badMemErr {
			t.Fatalf("invalid memory: err = %v, want %q", err, c.badMemErr)
		}
		if _, err := s.Register(faas.Config{Name: "", MemoryMB: c.mem, Handler: echo}); err == nil {
			t.Fatal("empty name accepted")
		}
		if _, err := s.Register(faas.Config{Name: "f", MemoryMB: c.mem}); err == nil {
			t.Fatal("nil handler accepted")
		}
		if _, err := s.Register(faas.Config{Name: "f", MemoryMB: c.mem, Handler: echo}); err != nil {
			t.Fatalf("valid register failed: %v", err)
		}
		if _, err := s.Register(faas.Config{Name: "f", MemoryMB: c.mem, Handler: echo}); err == nil {
			t.Fatal("duplicate register accepted")
		}
	})
}

func TestColdThenWarm(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service()
		s.MustRegister(faas.Config{Name: "f", MemoryMB: c.mem, CodeSizeMB: 50, Handler: echo})
		var first, second *faas.Invocation
		k.Spawn("client", func(p *sim.Proc) {
			first, _ = s.Invoke(p, "f", []byte("a"))
			second, _ = s.Invoke(p, "f", []byte("b"))
		})
		k.Run()
		if !first.Cold {
			t.Fatal("first invoke should be cold")
		}
		// Base + 50 MB / 50 MBps = 1 s fetch.
		if want := c.coldBase + time.Second; first.ColdStartDelay != want {
			t.Fatalf("cold start = %v, want %v", first.ColdStartDelay, want)
		}
		if second.Cold {
			t.Fatal("second invoke should reuse the warm container")
		}
		// Warm total: 10ms RTT + 5ms warm start + 100ms exec.
		if second.Total != 115*time.Millisecond {
			t.Fatalf("warm total = %v, want 115ms", second.Total)
		}
	})
}

func TestKeepAliveExpiry(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service() // 1 min keep-alive
		s.MustRegister(faas.Config{Name: "f", MemoryMB: c.mem, Handler: echo})
		var again *faas.Invocation
		k.Spawn("client", func(p *sim.Proc) {
			if _, err := s.Invoke(p, "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
			p.Sleep(2 * time.Minute)
			again, _ = s.Invoke(p, "f", nil)
		})
		k.Run()
		if !again.Cold {
			t.Fatal("invoke after keep-alive expiry should be cold")
		}
	})
}

func TestPayloadLimit(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service()
		s.MustRegister(faas.Config{Name: "f", MemoryMB: c.mem, Handler: echo})
		limit := c.params.PayloadLimit
		var err error
		k.Spawn("client", func(p *sim.Proc) {
			_, err = s.Invoke(p, "f", make([]byte, limit+1))
		})
		k.Run()
		var tooBig *faas.PayloadTooLargeError
		want := fmt.Sprintf("%s: payload for f is %d bytes, limit %d", c.comp, limit+1, limit)
		if !errors.As(err, &tooBig) || err.Error() != want {
			t.Fatalf("err = %v, want PayloadTooLargeError %q", err, want)
		}
	})
}

func TestBurstConcurrencyQueues(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service() // burst = 2
		tr := span.New()
		s.Tracer = tr
		slow := func(ctx *faas.Context, payload []byte) ([]byte, error) {
			ctx.Busy(time.Second)
			return nil, nil
		}
		s.MustRegister(faas.Config{Name: "slow", MemoryMB: c.mem, Handler: slow})
		for i := 0; i < 4; i++ {
			k.Spawn("client", func(p *sim.Proc) {
				if _, err := s.Invoke(p, "slow", nil); err != nil {
					t.Errorf("invoke: %v", err)
				}
			})
		}
		k.Run()
		queued := 0
		for _, sp := range tr.Spans() {
			if sp.Kind == span.KindQueue && sp.Name == c.comp+"/admission/slow" {
				queued++
			}
		}
		if queued != 2 {
			t.Fatalf("queued invokes = %d, want 2 (burst limit 2 of 4)", queued)
		}
	})
}

// TestSpanNames pins the span layout of a cold invoke and of one that
// waits for burst capacity, under the service's own name.
func TestSpanNames(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k := sim.NewKernel(1)
		fp := c.fixedParams()
		fp.BurstConcurrency = 1
		s := c.build(k, fp)
		tr := span.New()
		s.Tracer = tr
		s.MustRegister(faas.Config{Name: "f", MemoryMB: c.mem, Handler: echo})
		for i := 0; i < 2; i++ {
			k.Spawn("client", func(p *sim.Proc) {
				if _, err := s.Invoke(p, "f", nil); err != nil {
					t.Errorf("invoke: %v", err)
				}
			})
		}
		k.Run()
		count := map[string]int{}
		for _, sp := range tr.Spans() {
			count[string(sp.Kind)+" "+sp.Name]++
		}
		want := map[string]int{
			string(span.KindInvoke) + " " + c.comp + "/f":          2,
			string(span.KindCold) + " " + c.comp + "/cold/f":       1,
			string(span.KindQueue) + " " + c.comp + "/admission/f": 1,
			string(span.KindExec) + " " + c.comp + "/exec/f":       2,
		}
		if len(count) != len(want) {
			t.Fatalf("spans = %v, want %v", count, want)
		}
		for k, n := range want {
			if count[k] != n {
				t.Fatalf("spans = %v, want %v", count, want)
			}
		}
	})
}

func TestTimeoutClampsBilling(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service()
		hang := func(ctx *faas.Context, payload []byte) ([]byte, error) {
			ctx.Busy(10 * time.Second)
			return []byte("never"), nil
		}
		f := s.MustRegister(faas.Config{Name: "h", MemoryMB: c.mem, Timeout: time.Second, Handler: hang})
		var inv *faas.Invocation
		k.Spawn("client", func(p *sim.Proc) { inv, _ = s.Invoke(p, "h", nil) })
		k.Run()
		var te *faas.TimeoutError
		want := c.comp + ": h timed out after 1s"
		if !errors.As(inv.Err, &te) || inv.Err.Error() != want {
			t.Fatalf("err = %v, want TimeoutError %q", inv.Err, want)
		}
		if inv.Output != nil {
			t.Fatal("timed-out invoke returned output")
		}
		if inv.ExecTime != time.Second {
			t.Fatalf("billed exec = %v, want capped at 1s", inv.ExecTime)
		}
		if m := billed(c.mem, time.Second); f.Meter != m {
			t.Fatalf("meter = %+v, want %+v", f.Meter, m)
		}
	})
}

func TestTimeLimitCapsConfiguredTimeout(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service()
		_, err := s.Register(faas.Config{Name: "f", MemoryMB: c.mem, Timeout: time.Hour, Handler: func(ctx *faas.Context, _ []byte) ([]byte, error) {
			ctx.Busy(c.params.TimeLimit + time.Minute)
			return nil, nil
		}})
		if err != nil {
			t.Fatal(err)
		}
		var inv *faas.Invocation
		k.Spawn("client", func(p *sim.Proc) { inv, _ = s.Invoke(p, "f", nil) })
		k.Run()
		var te *faas.TimeoutError
		if !errors.As(inv.Err, &te) || te.Limit != c.params.TimeLimit || inv.ExecTime != c.params.TimeLimit {
			t.Fatalf("err = %v, exec %v; want the hour timeout clamped to the %v platform limit", inv.Err, inv.ExecTime, c.params.TimeLimit)
		}
	})
}

func TestBillingRoundsTo100ms(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service()
		f := s.MustRegister(faas.Config{Name: "f", MemoryMB: c.bigMem, ConsumedMemMB: 400, Handler: func(ctx *faas.Context, _ []byte) ([]byte, error) {
			ctx.Busy(110 * time.Millisecond)
			return nil, nil
		}})
		k.Spawn("client", func(p *sim.Proc) {
			if _, err := s.Invoke(p, "f", nil); err != nil {
				t.Errorf("invoke: %v", err)
			}
		})
		k.Run()
		want := 0.2 * float64(c.bigMem) / 1024 // 200 ms on the configured memory
		if d := f.Meter.BilledGBs - want; d > 1e-9 || d < -1e-9 {
			t.Fatalf("BilledGBs = %v, want %v", f.Meter.BilledGBs, want)
		}
	})
}

func TestInvokeUnknownFunction(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service()
		var err error
		k.Spawn("client", func(p *sim.Proc) { _, err = s.Invoke(p, "ghost", nil) })
		k.Run()
		if want := c.comp + `: no such function "ghost"`; err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	})
}

func TestHandlerErrorReported(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service()
		boom := errors.New("boom")
		s.MustRegister(faas.Config{Name: "f", MemoryMB: c.mem, Handler: func(*faas.Context, []byte) ([]byte, error) {
			return nil, boom
		}})
		var inv *faas.Invocation
		k.Spawn("client", func(p *sim.Proc) { inv, _ = s.Invoke(p, "f", nil) })
		k.Run()
		if !errors.Is(inv.Err, boom) {
			t.Fatalf("err = %v", inv.Err)
		}
	})
}

func TestStatsAndMeters(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.service()
		s.MustRegister(faas.Config{Name: "f", MemoryMB: c.mem, Handler: echo})
		var invs []*faas.Invocation
		k.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 3; i++ {
				inv, err := s.Invoke(p, "f", nil)
				if err != nil {
					t.Errorf("invoke: %v", err)
				}
				invs = append(invs, inv)
			}
		})
		k.Run()
		if len(invs) != 3 || !invs[0].Cold || invs[0].ColdStartDelay <= 0 || invs[1].Cold || invs[2].Cold {
			t.Fatalf("invocations = %+v, want one cold start then two warm", invs)
		}
		if s.TotalMeter().Invocations != 3 {
			t.Fatal("total meter wrong")
		}
	})
}
