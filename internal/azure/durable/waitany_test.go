package durable

import (
	"encoding/json"
	"testing"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/sim"
)

func TestWaitAnyRace(t *testing.T) {
	k, host, hub, client := fixture()
	mk := func(name string, d time.Duration) {
		if err := hub.RegisterActivity(name, 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
			ctx.Busy(d)
			return []byte(name), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	mk("fast", 100*time.Millisecond)
	mk("slow", 10*time.Second)
	if err := hub.RegisterOrchestrator("race", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		a := ctx.CallActivity("slow", nil)
		b := ctx.CallActivity("fast", nil)
		idx := ctx.WaitAny(a, b)
		out, _ := json.Marshal(idx)
		return out, nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, _, err = client.Run(p, "race", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if string(out) != "1" {
		t.Fatalf("WaitAny picked %s, want index 1 (fast)", out)
	}
}

func TestTimerRacesActivity(t *testing.T) {
	// The canonical durable timeout pattern: activity vs timer.
	k, host, hub, client := fixture()
	if err := hub.RegisterActivity("slowwork", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(5 * time.Minute)
		return []byte("done"), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("withTimeout", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		work := ctx.CallActivity("slowwork", nil)
		timeout := ctx.CreateTimer(30 * time.Second)
		if ctx.WaitAny(work, timeout) == 1 {
			return []byte("timed out"), nil
		}
		return work.Await()
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		out, hd, err = client.Run(p, "withTimeout", nil)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	if string(out) != "timed out" {
		t.Fatalf("out = %s", out)
	}
	if hd.E2E() >= 5*time.Minute {
		t.Fatalf("orchestration waited for the slow activity: %v", hd.E2E())
	}
}
