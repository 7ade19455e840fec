package durable

import (
	"testing"
	"time"

	"statebench/internal/azure/functions"
	"statebench/internal/sim"
)

func TestWaitForExternalEvent(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterOrchestrator("approval", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		decision, err := ctx.WaitForExternalEvent("Approve").Await()
		if err != nil {
			return nil, err
		}
		return append([]byte("decided:"), decision...), nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	var hd *Handle
	drive(k, host, func(p *sim.Proc) {
		var err error
		hd, err = client.StartOrchestration(p, "approval", nil)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		p.Sleep(time.Minute) // the approver takes a while
		if err := client.RaiseEvent(p, hd.ID, "Approve", []byte("yes")); err != nil {
			t.Errorf("raise: %v", err)
			return
		}
		out, err = hd.Wait(p)
		if err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if string(out) != "decided:yes" {
		t.Fatalf("out = %s", out)
	}
	if hd.E2E() < time.Minute {
		t.Fatalf("orchestration finished before the event: %v", hd.E2E())
	}
}

func TestExternalEventBufferedBeforeWait(t *testing.T) {
	// The event arrives while the orchestrator is still busy with an
	// activity; it must be buffered and matched when the wait appears.
	k, host, hub, client := fixture()
	if err := hub.RegisterActivity("slow", 128, func(ctx *functions.Context, in []byte) ([]byte, error) {
		ctx.Busy(30 * time.Second)
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := hub.RegisterOrchestrator("buffered", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		if _, err := ctx.CallActivity("slow", nil).Await(); err != nil {
			return nil, err
		}
		return ctx.WaitForExternalEvent("Go").Await()
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	drive(k, host, func(p *sim.Proc) {
		hd, err := client.StartOrchestration(p, "buffered", nil)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		p.Sleep(2 * time.Second) // well before the activity completes
		if err := client.RaiseEvent(p, hd.ID, "Go", []byte("early")); err != nil {
			t.Errorf("raise: %v", err)
			return
		}
		out, err = hd.Wait(p)
		if err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if string(out) != "early" {
		t.Fatalf("buffered event lost: %q", out)
	}
}

func TestMultipleEventsMatchInOrder(t *testing.T) {
	k, host, hub, client := fixture()
	if err := hub.RegisterOrchestrator("seq", 128, func(ctx *OrchestrationContext, input []byte) ([]byte, error) {
		a, err := ctx.WaitForExternalEvent("E").Await()
		if err != nil {
			return nil, err
		}
		b, err := ctx.WaitForExternalEvent("E").Await()
		if err != nil {
			return nil, err
		}
		return append(append([]byte{}, a...), b...), nil
	}); err != nil {
		t.Fatal(err)
	}
	var out []byte
	drive(k, host, func(p *sim.Proc) {
		hd, err := client.StartOrchestration(p, "seq", nil)
		if err != nil {
			t.Errorf("start: %v", err)
			return
		}
		p.Sleep(5 * time.Second)
		if err := client.RaiseEvent(p, hd.ID, "E", []byte("1")); err != nil {
			t.Error(err)
		}
		p.Sleep(5 * time.Second)
		if err := client.RaiseEvent(p, hd.ID, "E", []byte("2")); err != nil {
			t.Error(err)
		}
		out, err = hd.Wait(p)
		if err != nil {
			t.Errorf("wait: %v", err)
		}
	})
	if string(out) != "12" {
		t.Fatalf("events out of order: %q", out)
	}
}

func TestRaiseEventUnknownInstance(t *testing.T) {
	k, host, _, client := fixture()
	drive(k, host, func(p *sim.Proc) {
		if err := client.RaiseEvent(p, "ghost-000001", "E", nil); err == nil {
			t.Error("raise on unknown instance succeeded")
		}
	})
}
