package core_test

import (
	"testing"

	"statebench/internal/core"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
	"statebench/internal/workloads/videoproc"
)

// TestCampaignWorkCounts pins the kernel's work counters for one
// quick-scale campaign of the classic-hub style and of both AWS
// styles: events executed and goroutine switches. Both are fixed by
// the event order, so they must repeat exactly at every worker count.
// A kernel round trip per wake-up, a no-op event per timed-out idle
// poll, a listener process resumed for an empty poll, or an empty poll
// run as events instead of ahead of the clock moves them. (Az-Dorch's
// Executed read 10,654 while each empty poll ran as three events: its
// end, the back-off timer and the hop.) An AWS campaign builds no
// Azure cloud, so its counts hold no classic-hub listener: AWS-Step
// read 1,367 events and 219 switches, and AWS-Lambda 372 and 12, while
// every Env also started the idle durable/control-0 to control-3 and
// durable/workitems listeners.
func TestCampaignWorkCounts(t *testing.T) {
	want := map[core.Impl][2]uint64{
		core.AzDorch:   {4059, 441},
		core.AWSStep:   {639, 209},
		core.AWSLambda: {111, 2},
	}
	wf := mltrain.New(mlpipe.Small)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 10
	opt.KeepEnv = true
	for _, workers := range []int{1, 8} {
		opt.Workers = workers
		all, err := core.MeasureAll(wf, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, impl := range []core.Impl{core.AzDorch, core.AWSStep, core.AWSLambda} {
			k := all[impl].Env.K
			if got := [2]uint64{k.Executed(), k.Switches()}; got != want[impl] {
				t.Errorf("%s, MeasureAll at Workers %d: Executed(), Switches() = %d, %d; want %d, %d",
					impl, workers, got[0], got[1], want[impl][0], want[impl][1])
			}
		}
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
		hub := s.Env.Azure().Hub
		st := hub.HistoryTable().Stats()
		got := [5]int64{st.Queries, st.Batches, hub.EpisodeCount, hub.ReplayEvents, int64(s.Env.K.Executed())}
		want := [5]int64{queries, batches, episodes, replayed, executed}
		if got != want {
			t.Errorf("Workers %d: history Queries, Batches = %d, %d; EpisodeCount %d, ReplayEvents %d, Executed() %d; want %v",
				workers, got[0], got[1], got[2], got[3], got[4], want)
		}
	}
}
