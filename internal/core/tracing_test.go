// Cross-checks between the two breakdown estimators: meter/snapshot
// deltas (the PR-1 path) and span-tree sums (this PR). External test
// package so real workloads can be deployed without an import cycle.
package core_test

import (
	"testing"
	"time"

	"statebench/internal/core"
	"statebench/internal/obs"
	"statebench/internal/obs/span"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
	"statebench/internal/workloads/videoproc"
)

func tracedMeasure(t *testing.T, wf core.Workflow, impl core.Impl, opt core.MeasureOptions) *core.Series {
	t.Helper()
	opt.Tracing = true
	s, err := core.Measure(wf, impl, opt)
	if err != nil {
		t.Fatalf("measure %s/%s: %v", wf.Name(), impl, err)
	}
	if s.Trace == nil || len(runSpans(s.Trace)) != opt.Iters || s.SpanBreakdowns.Len() != opt.Iters {
		t.Fatalf("tracing plumbing incomplete: trace=%v runs=%d breakdowns=%d",
			s.Trace != nil, len(runSpans(s.Trace)), s.SpanBreakdowns.Len())
	}
	return s
}

// runSpans returns the tracer's run spans, one per measured iteration.
func runSpans(tr *span.Tracer) []span.Span {
	var runs []span.Span
	for _, sp := range tr.Spans() {
		if sp.Kind == span.KindRun {
			runs = append(runs, sp)
		}
	}
	return runs
}

// within asserts |got-want| <= frac*want.
func within(t *testing.T, what string, got, want time.Duration, frac float64) {
	t.Helper()
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	if float64(diff) > frac*float64(want) {
		t.Fatalf("%s: span-derived %v vs snapshot %v differ by more than %.0f%%", what, got, want, frac*100)
	}
}

// TestSpanExecMatchesSnapshotSerial: for serial (monolith) styles no
// clamping occurs, so the span-tree exec sum and the meter-delta exec
// must agree essentially exactly.
func TestSpanExecMatchesSnapshotSerial(t *testing.T) {
	wf := mltrain.New(mlpipe.Small)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 3
	for _, impl := range []core.Impl{core.AWSLambda, core.AzFunc} {
		s := tracedMeasure(t, wf, impl, opt)
		sb := s.SpanBreakdowns.Mean()
		mb := s.Breakdowns.Mean()
		within(t, string(impl)+" exec", sb.ExecTime, mb.ExecTime, 0.01)
	}
}

// TestSpanExecMatchesMeterFanout: with parallel branches the snapshot
// Breakdown clamps exec to E2E, but the raw meter keeps the cumulative
// sum — exactly what the span tree records. Compare against the meter.
func TestSpanExecMatchesMeterFanout(t *testing.T) {
	wf := videoproc.New(8)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 1
	opt.Warmup = 0
	opt.KeepEnv = true
	for _, impl := range []core.Impl{core.AWSStep, core.AzDorch} {
		s := tracedMeasure(t, wf, impl, opt)
		var meterExec time.Duration
		if impl.Cloud() == core.AWS {
			meterExec = s.Env.AWS.Lambda.TotalMeter().ExecTime
		} else {
			meterExec = s.Env.Azure.Host.TotalMeter().ExecTime
		}
		spanExec := span.TotalByKind(s.Trace.Spans(), 0)[span.KindExec]
		within(t, string(impl)+" cumulative exec", spanExec, meterExec, 0.01)
		// The clamped snapshot path reports at most E2E; the raw sums
		// must dominate it.
		if mb := s.Breakdowns.Mean(); spanExec < mb.ExecTime {
			t.Fatalf("%s: span exec %v below clamped snapshot exec %v", impl, spanExec, mb.ExecTime)
		}
	}
}

// TestFig8QueueShape reproduces the paper's Fig 8 contrast from spans:
// the Az-Queue chain spends tens of seconds queueing between stages
// (long-poll hops on a static container pool), while the durable
// orchestrator's queue time stays around a second. The span-derived
// queue must also agree with the snapshot path, where "cold" for
// Az-Queue is itself a queue wait (first-hop delay) and is folded in.
func TestFig8QueueShape(t *testing.T) {
	if testing.Short() {
		t.Skip("large-dataset campaign")
	}
	wf := mltrain.New(mlpipe.Large)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 2

	sq := tracedMeasure(t, wf, core.AzQueue, opt)
	sd := tracedMeasure(t, wf, core.AzDorch, opt)

	qQueue := sq.SpanBreakdowns.Mean().QueueTime
	dQueue := sd.SpanBreakdowns.Mean().QueueTime
	if qQueue < 10*time.Second {
		t.Fatalf("Az-Queue span queue = %v, want tens of seconds (Fig 8)", qQueue)
	}
	if dQueue > 5*time.Second {
		t.Fatalf("Az-Dorch span queue = %v, want a few seconds at most (Fig 8)", dQueue)
	}
	if qQueue < 4*dQueue {
		t.Fatalf("Fig 8 contrast lost: Az-Queue %v vs Az-Dorch %v", qQueue, dQueue)
	}

	// Cross-check vs snapshot: Az-Queue's snapshot "cold" is the
	// first-hop wait, so the comparable quantity is cold+queue.
	mq := sq.Breakdowns.Mean()
	within(t, "Az-Queue queue", qQueue, mq.ColdStart+mq.QueueTime, 0.30)
}

// TestFig13ColdFanout checks the Fig 13 cold fan-out from spans: a
// fresh video deployment records cold-start spans, and their sum
// dominates the snapshot path's single first-task delay.
func TestFig13ColdFanout(t *testing.T) {
	wf := videoproc.New(20)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 1
	opt.Warmup = 0
	for _, impl := range []core.Impl{core.AWSStep, core.AzDorch} {
		s := tracedMeasure(t, wf, impl, opt)
		spanCold := s.SpanBreakdowns.Mean().ColdStart
		snapCold := s.Breakdowns.Mean().ColdStart
		if spanCold <= 0 {
			t.Fatalf("%s: no cold spans on a fresh deployment", impl)
		}
		if spanCold < snapCold {
			t.Fatalf("%s: span cold %v below snapshot first-delay %v", impl, spanCold, snapCold)
		}
	}
}

// TestTracingDoesNotChangeResults is the determinism contract at the
// Measure level: identical samples with tracing on and off.
func TestTracingDoesNotChangeResults(t *testing.T) {
	wf := mltrain.New(mlpipe.Small)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 3
	for _, impl := range []core.Impl{core.AWSStep, core.AzQueue, core.AzDorch} {
		plain, err := core.Measure(wf, impl, opt)
		if err != nil {
			t.Fatal(err)
		}
		traced := tracedMeasure(t, wf, impl, opt)
		for q := 1; q <= 9; q++ {
			f := float64(q) / 10
			if a, b := plain.E2E.Quantile(f), traced.E2E.Quantile(f); a != b {
				t.Fatalf("%s: E2E q%.1f differs with tracing: %v vs %v", impl, f, a, b)
			}
		}
		if plain.MeanBill != traced.MeanBill {
			t.Fatalf("%s: bill differs with tracing", impl)
		}
	}
}

// TestRunSpansCoverE2E: each run's root span duration equals the run's
// end-to-end wall clock bracket (it wraps the Invoke call).
func TestRunSpansCoverE2E(t *testing.T) {
	wf := mltrain.New(mlpipe.Small)
	opt := core.DefaultMeasureOptions()
	opt.Iters = 2
	s := tracedMeasure(t, wf, core.AWSStep, opt)
	var e2e obs.Samples
	e2e = s.E2E
	traces := map[uint64]bool{}
	for i, rs := range runSpans(s.Trace) {
		if rs.Parent != 0 || traces[rs.TraceID] {
			t.Fatalf("run span %d (trace %d, parent %d) does not root a trace of its own", i, rs.TraceID, rs.Parent)
		}
		traces[rs.TraceID] = true
		// Root span brackets the Invoke; E2E is measured inside it.
		if rs.Duration() < e2e.Quantile(0) {
			t.Fatalf("run span %d (%v) shorter than min E2E %v", i, rs.Duration(), e2e.Quantile(0))
		}
	}
}
