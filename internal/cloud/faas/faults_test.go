package faas_test

import (
	"errors"
	"testing"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/cloud/faas"
	"statebench/internal/obs/span"
	"statebench/internal/sim"
)

// faultedService builds the calibration's service with one chaos rule
// on its own component.
func (c calibration) faultedService(rule chaos.Rule) (*sim.Kernel, *faas.Service) {
	k, s := c.service()
	rule.Component = c.comp
	s.Chaos = chaos.NewInjector(k, &chaos.Plan{Rules: []chaos.Rule{rule}})
	return k, s
}

// runFaulted invokes f three times with a 40 ms fault of kind on the
// second invoke, checks what a partial execution returns and bills, and
// returns the three invocations.
func runFaulted(t *testing.T, c calibration, kind chaos.Kind) []*faas.Invocation {
	t.Helper()
	k, s := c.faultedService(chaos.Rule{Kind: kind, Rate: 1, Delay: 40 * time.Millisecond, MaxFaults: 1, After: 1})
	f := s.MustRegister(faas.Config{Name: "f", MemoryMB: c.mem, Handler: echo})
	var invs []*faas.Invocation
	k.Spawn("client", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			inv, err := s.Invoke(p, "f", []byte("x"))
			if err != nil {
				t.Errorf("invoke %d: %v", i, err)
				return
			}
			invs = append(invs, inv)
		}
	})
	k.Run()
	if len(invs) != 3 {
		t.Fatalf("got %d invocations, want 3", len(invs))
	}
	inv := invs[1]
	var fe *chaos.FaultError
	if !errors.As(inv.Err, &fe) || fe.Kind != kind || fe.Component != c.comp || fe.Name != "f" {
		t.Fatalf("faulted invoke err = %v, want a %s FaultError on %s/f", inv.Err, kind, c.comp)
	}
	if inv.Output != nil || inv.ExecTime != 40*time.Millisecond {
		t.Fatalf("faulted invoke output %q exec %v, want no output and 40ms of partial execution", inv.Output, inv.ExecTime)
	}
	if m := billed(c.mem, 100*time.Millisecond, 40*time.Millisecond, 100*time.Millisecond); f.Meter != m {
		t.Fatalf("meter = %+v, want %+v (the partial execution billed)", f.Meter, m)
	}
	return invs
}

func TestCrashLosesContainer(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		invs := runFaulted(t, c, chaos.Crash)
		if !invs[0].Cold || invs[1].Cold || !invs[2].Cold {
			t.Fatalf("cold %v/%v/%v; want the crashed container lost and the next invoke cold",
				invs[0].Cold, invs[1].Cold, invs[2].Cold)
		}
	})
}

func TestTransientErrorKeepsContainer(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		invs := runFaulted(t, c, chaos.TransientError)
		if !invs[0].Cold || invs[1].Cold || invs[2].Cold {
			t.Fatalf("cold %v/%v/%v; want the container kept warm",
				invs[0].Cold, invs[1].Cold, invs[2].Cold)
		}
	})
}

func TestTimeoutSpikeClampsToTimeout(t *testing.T) {
	forEach(t, func(t *testing.T, c calibration) {
		k, s := c.faultedService(chaos.Rule{Kind: chaos.TimeoutSpike, Rate: 1, Delay: 2 * time.Second})
		tr := span.New()
		s.Tracer = tr
		f := s.MustRegister(faas.Config{Name: "f", MemoryMB: c.mem, Timeout: time.Second, Handler: echo})
		var inv *faas.Invocation
		k.Spawn("client", func(p *sim.Proc) { inv, _ = s.Invoke(p, "f", []byte("x")) })
		k.Run()
		var te *faas.TimeoutError
		if !errors.As(inv.Err, &te) || te.Function != "f" || te.Limit != time.Second {
			t.Fatalf("err = %v, want a TimeoutError after 1s", inv.Err)
		}
		if inv.Output != nil || inv.ExecTime != time.Second {
			t.Fatalf("output %q exec %v, want none and 1s", inv.Output, inv.ExecTime)
		}
		if m := billed(c.mem, time.Second); f.Meter != m {
			t.Fatalf("meter = %+v, want %+v (billing clamped to the timeout)", f.Meter, m)
		}
		var execSpans int
		for _, sp := range tr.Spans() {
			if sp.Name == c.comp+"/exec/f" {
				execSpans++
				if sp.Duration() != time.Second {
					t.Fatalf("exec span lasts %v, want clamped to 1s", sp.Duration())
				}
			}
		}
		if execSpans != 1 {
			t.Fatalf("exec spans = %d, want 1", execSpans)
		}
	})
}
