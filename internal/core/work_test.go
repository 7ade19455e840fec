package core_test

import (
	"fmt"
	"testing"

	"statebench/internal/core"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
	"statebench/internal/workloads/videoproc"
)

// TestCampaignWorkCounts pins the kernel's work counters for one
// quick-scale classic-hub campaign: events executed and goroutine
// switches. Both are fixed by the event order, so they must repeat
// exactly at every worker count. A kernel round trip per wake-up, a
// no-op event per timed-out idle poll, a listener process resumed for
// an empty poll, or an empty poll run as events instead of ahead of
// the clock moves them. (Executed read 10,654 while each empty poll
// ran as three events: its end, the back-off timer and the hop.)
func TestCampaignWorkCounts(t *testing.T) {
	const executed, switches = 4059, 441
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
	for _, workers := range []int{1, 8} {
		opt.Workers = workers
		all, err := core.MeasureAll(wf, opt)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("MeasureAll at Workers %d", workers), all[core.AzDorch])
	}
}

// TestClassicHistoryWorkCounts pins the classic hub's history-table
// work for one fig14-shaped campaign, an 80-wide cold fan-out on
// Az-Dorch: the billed queries and batch writes, the episodes
// and the history records they replay, and the kernel's events. The
// history codec moves none of them, because a query bills one
// transaction and one latency whatever it returns; a change that
// re-reads history, splits a batch or replays more events moves them.
// (Executed read 7,785 while the listeners' empty polls ran as three
// events each instead of ahead of the clock.)
func TestClassicHistoryWorkCounts(t *testing.T) {
	const (
		queries, batches   = 19, 19
		episodes, replayed = 19, 2513
		executed           = 3166
	)
	wf := videoproc.New(80)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 1
	opt.Warmup = 0
	opt.KeepEnv = true
	for _, workers := range []int{1, 8} {
		opt.Workers = workers
		s, err := core.Measure(wf, core.AzDorch, opt)
		if err != nil {
			t.Fatal(err)
		}
		hub := s.Env.Azure.Hub
		st := hub.HistoryTable().Stats()
		got := [5]int64{st.Queries, st.Batches, hub.EpisodeCount, hub.ReplayEvents, int64(s.Env.K.Executed())}
		want := [5]int64{queries, batches, episodes, replayed, executed}
		if got != want {
			t.Errorf("Workers %d: history Queries, Batches = %d, %d; EpisodeCount %d, ReplayEvents %d, Executed() %d; want %v",
				workers, got[0], got[1], got[2], got[3], got[4], want)
		}
	}
}
