package netherite_test

import (
	"encoding/json"
	"testing"
	"time"

	"statebench/internal/azure/durable"
	"statebench/internal/chaos"
	"statebench/internal/obs/metrics"
	"statebench/internal/sim"
)

// registerChain installs the 3-step add1 chain — the same workload the
// classic hub's chaos tests recover, rerun here against speculative
// commits.
func registerChain(t *testing.T, hub *durable.Hub) {
	t.Helper()
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
}

// runChain drives the chain to completion and returns its output,
// handle, and the instance's final materialized history as JSON.
func runChain(t *testing.T, e *env) (string, *durable.Handle, []byte) {
	t.Helper()
	registerChain(t, e.hub)
	var out []byte
	var hd *durable.Handle
	e.drive(func(p *sim.Proc) {
		var err error
		out, hd, err = e.client.Run(p, "chain", []byte("0"))
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	hist, err := json.Marshal(e.store.History(hd.ID))
	if err != nil {
		t.Fatalf("marshal history: %v", err)
	}
	return string(out), hd, hist
}

// TestCrashBeforeCommitAbortsAndReplays injects a crash that loses one
// uncommitted batch: the speculative records must be rolled back and
// counted as wasted work, the episode deterministically aborted and
// replayed, and the final output and committed history byte-identical
// to a fault-free run.
func TestCrashBeforeCommitAbortsAndReplays(t *testing.T) {
	faultFreeOut, faultFreeHd, faultFreeHist := runChain(t, netheriteEnv(1, nil))
	if faultFreeOut != "3" {
		t.Fatalf("fault-free output = %q, want 3", faultFreeOut)
	}

	e := netheriteEnv(1, &chaos.Plan{
		RedeliveryDelay: 2 * time.Second,
		Rules: []chaos.Rule{
			{Component: "netherite", Kind: chaos.Crash, Rate: 1, MaxFaults: 1},
		},
	})
	reg := metrics.NewRegistry()
	e.inj.Metrics = reg
	out, hd, hist := runChain(t, e)

	if out != "3" {
		t.Fatalf("output = %q, want 3 (abort+replay must recover the lost batch)", out)
	}
	if hd.Status() != durable.StatusCompleted {
		t.Fatalf("status = %s", hd.Status())
	}
	st := e.inj.Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if e.store.LostRecords() == 0 {
		t.Fatal("no speculative records were lost; the crash window missed the commit path")
	}
	if st.WastedWork != e.store.LostRecords() {
		t.Fatalf("WastedWork = %d but store lost %d records; speculation accounting diverged", st.WastedWork, e.store.LostRecords())
	}
	if got := reg.CounterValue("statebench_chaos_wasted_speculation_total"); got != float64(st.WastedWork) {
		t.Fatalf("wasted-speculation metric = %v, want %d", got, st.WastedWork)
	}
	// The replayed instance converges on exactly the history a fault-free
	// run commits: nothing lost, nothing duplicated.
	if hd.ID != faultFreeHd.ID {
		t.Fatalf("instance IDs diverged (%s vs %s); same seed must name the same instance", hd.ID, faultFreeHd.ID)
	}
	if string(hist) != string(faultFreeHist) {
		t.Fatalf("history after abort+replay diverged from fault-free run:\n  chaos:      %s\n  fault-free: %s", hist, faultFreeHist)
	}
}

// TestCrashAfterCommitRehydratesWithoutRedelivery injects a crash
// after the batch committed. The commit log integrates state and
// message cursors, so the triggering messages were acknowledged
// atomically with the batch: nothing redelivers, no replay dedup runs,
// history stays byte-identical to the fault-free run, and the crash
// surfaces purely as partition-rehydration recovery delay. (The
// classic hub, by contrast, re-inboxes the unacknowledged messages and
// leans on TaskID-keyed replay to absorb the re-folded rows.)
func TestCrashAfterCommitRehydratesWithoutRedelivery(t *testing.T) {
	_, ffHd, faultFreeHist := runChain(t, netheriteEnv(1, nil))

	e := netheriteEnv(1, &chaos.Plan{
		RedeliveryDelay: 2 * time.Second,
		Rules: []chaos.Rule{
			{Component: "netherite", Kind: chaos.CrashAfterPersist, Rate: 1, MaxFaults: 1},
		},
	})
	out, hd, hist := runChain(t, e)

	if out != "3" {
		t.Fatalf("output = %q, want 3", out)
	}
	if hd.Status() != durable.StatusCompleted {
		t.Fatalf("status = %s", hd.Status())
	}
	st := e.inj.Stats()
	if st.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", st.Crashes)
	}
	if e.store.LostRecords() != 0 || st.WastedWork != 0 {
		t.Fatalf("lost = %d, wasted = %d: a post-commit crash must lose nothing", e.store.LostRecords(), st.WastedWork)
	}
	if string(hist) != string(faultFreeHist) {
		t.Fatalf("history after post-commit crash diverged from fault-free run:\n  chaos:      %s\n  fault-free: %s", hist, faultFreeHist)
	}
	if st.RecoveryDelay != 2*time.Second {
		t.Fatalf("RecoveryDelay = %v, want 2s: one partition rehydration, no redeliveries", st.RecoveryDelay)
	}
	if hd.E2E() <= ffHd.E2E() {
		t.Fatalf("E2E with rehydration (%v) <= fault-free (%v); the crash must cost client-visible latency", hd.E2E(), ffHd.E2E())
	}
}

// TestTransportDuplicatesDroppedBySeqDedup proves the partition
// sequence-number dedup replaces the classic queues' MaxDequeueCount
// machinery: every injected ghost is dropped on arrival, nothing is
// dead-lettered, no recovery delay is booked, and the result is
// exactly-once.
func TestTransportDuplicatesDroppedBySeqDedup(t *testing.T) {
	e := netheriteEnv(1, &chaos.Plan{
		RedeliveryDelay: time.Second,
		Rules: []chaos.Rule{
			{Component: "netherite-transport", Kind: chaos.Duplicate, Rate: 0.5},
		},
	})
	out, hd, _ := runChain(t, e)

	if out != "3" {
		t.Fatalf("output = %q, want 3 (duplicates must not double-apply)", out)
	}
	if hd.Status() != durable.StatusCompleted {
		t.Fatalf("status = %s", hd.Status())
	}
	st := e.inj.Stats()
	if st.Duplicates == 0 {
		t.Fatal("no duplicates injected; the test exercised nothing")
	}
	if e.store.DroppedDuplicates() != st.Duplicates {
		t.Fatalf("dropped %d ghosts but injected %d: every duplicate must die in the dedup table", e.store.DroppedDuplicates(), st.Duplicates)
	}
	if st.DeadLetters != 0 {
		t.Fatalf("dead letters = %d, want 0: Netherite has no poison-message machinery to trip", st.DeadLetters)
	}
	if st.RecoveryDelay != 0 {
		t.Fatalf("RecoveryDelay = %v, want 0: dropped ghosts delay nobody", st.RecoveryDelay)
	}
}

// TestSpeculationWastesRealWork pins the cost model of speculation: the
// aborted episode's compute was real and billed. Under a lost batch the
// host's billed GB-s must exceed the fault-free run's — the waste the
// statebench_chaos_wasted_speculation_total metric prices.
func TestSpeculationWastesRealWork(t *testing.T) {
	billedGBs := func(plan *chaos.Plan) float64 {
		e := netheriteEnv(1, plan)
		out, _, _ := runChain(t, e)
		if out != "3" {
			t.Fatalf("output = %q, want 3", out)
		}
		var total float64
		for _, name := range []string{"chain", "add1"} {
			if f, ok := e.host.Function(name); ok {
				total += f.Meter.BilledGBs
			}
		}
		return total
	}
	clean := billedGBs(nil)
	crashed := billedGBs(&chaos.Plan{
		RedeliveryDelay: 2 * time.Second,
		Rules: []chaos.Rule{
			{Component: "netherite", Kind: chaos.Crash, Rate: 1, MaxFaults: 1},
		},
	})
	if crashed <= clean {
		t.Fatalf("billed GB-s with a lost batch (%.6f) <= fault-free (%.6f); the replayed episode's work should be billed twice", crashed, clean)
	}
}
