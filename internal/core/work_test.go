package core_test

import (
	"fmt"
	"testing"

	"statebench/internal/core"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
)

// TestCampaignWorkCounts pins the kernel's work counters for one
// quick-scale classic-hub campaign: events executed and goroutine
// switches. Both are fixed by the event order, so they must repeat
// exactly at every kernel shard count and worker count. A kernel round
// trip per wake-up, or a no-op event per timed-out idle poll, moves
// them.
func TestCampaignWorkCounts(t *testing.T) {
	const executed, switches = 10654, 4451
	wf := mltrain.New(mlpipe.Small)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 10
	opt.KeepEnv = true
	check := func(what string, s *core.Series) {
		t.Helper()
		if e, sw := s.Env.K.Executed(), s.Env.K.Switches(); e != executed || sw != switches {
			t.Errorf("%s: Executed() = %d, Switches() = %d; want %d, %d", what, e, sw, executed, switches)
		}
	}
	for _, shards := range []int{1, 4, 16} {
		s, err := core.MeasureSharded(shards, wf, core.AzDorch, opt)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("shards %d", shards), s)
	}
	for _, workers := range []int{1, 8} {
		opt.Workers = workers
		all, err := core.MeasureAll(wf, opt)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("MeasureAll at Workers %d", workers), all[core.AzDorch])
	}
}
