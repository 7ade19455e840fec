package span

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"statebench/internal/sim"
)

// buildTrace emits a small two-level tree:
//
//	run [0,100ms]
//	├── cold  [0,20ms]
//	├── exec  [20ms,60ms]
//	│   └── stage [25ms,55ms]
//	└── hop   [60ms,90ms]
func buildTrace(tr *Tracer) uint64 {
	run := tr.StartTrace(0, KindRun, "wf/impl")
	ctx := run.Context()
	tr.Emit(KindCold, "cold/f", 0, 20*time.Millisecond, ctx)
	exec := tr.Start(20*time.Millisecond, KindExec, "exec/f", ctx)
	tr.Emit(KindStage, "stage/s", 25*time.Millisecond, 55*time.Millisecond, exec.Context())
	exec.End(60 * time.Millisecond)
	tr.Emit(KindHop, "queue/q", 60*time.Millisecond, 90*time.Millisecond, ctx)
	run.End(100 * time.Millisecond)
	return ctx.TraceID
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() || tr.Len() != 0 {
		t.Fatal("nil tracer should be disabled and empty")
	}
	a := tr.StartTrace(0, KindRun, "x")
	if a.Live() {
		t.Fatal("nil tracer handle must not be live")
	}
	if ctx := a.Context(); ctx != (sim.TraceContext{}) {
		t.Fatalf("nil handle context = %+v", ctx)
	}
	a.End(time.Second) // must not panic
	tr.Emit(KindCold, "c", 0, 1, sim.TraceContext{})
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned spans")
	}
}

func TestTreeStructureAndIDs(t *testing.T) {
	tr := New()
	id := buildTrace(tr)
	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("span count = %d, want 5", len(spans))
	}
	// Root: SpanID == TraceID, no parent. Spans are recorded when they
	// finish, so the root is the last entry, not the first.
	root := spans[len(spans)-1]
	if root.Kind != KindRun || root.SpanID != id || root.Parent != 0 {
		t.Fatalf("root = %+v", root)
	}
	for _, s := range spans {
		if s.TraceID != id {
			t.Fatalf("span %s has trace %d, want %d", s.Name, s.TraceID, id)
		}
	}
	// A second trace gets a fresh, larger trace ID.
	id2 := buildTrace(tr)
	if id2 <= id {
		t.Fatalf("second trace id %d not after %d", id2, id)
	}
	if got := len(tr.Since(5)); got != 5 {
		t.Fatalf("Since(5) = %d spans", got)
	}
}

func TestBreakdownOf(t *testing.T) {
	tr := New()
	id := buildTrace(tr)
	b := BreakdownOf(tr.Spans(), id)
	if b.ColdStart != 20*time.Millisecond {
		t.Fatalf("cold = %v", b.ColdStart)
	}
	if b.QueueTime != 30*time.Millisecond {
		t.Fatalf("queue = %v", b.QueueTime)
	}
	if b.ExecTime != 40*time.Millisecond {
		t.Fatalf("exec = %v", b.ExecTime)
	}
	if b.Other != 0 {
		t.Fatalf("other = %v", b.Other)
	}
}

func TestTotalByKindAllTraces(t *testing.T) {
	tr := New()
	buildTrace(tr)
	buildTrace(tr)
	all := TotalByKind(tr.Spans(), 0)
	if all[KindExec] != 80*time.Millisecond {
		t.Fatalf("exec across traces = %v", all[KindExec])
	}
	if all[KindRun] != 200*time.Millisecond {
		t.Fatalf("run across traces = %v", all[KindRun])
	}
}

func TestChromeExportDeterministic(t *testing.T) {
	render := func() string {
		tr := New()
		buildTrace(tr)
		var buf bytes.Buffer
		if err := WriteChromeTraceWith(&buf, tr.Spans(), nil); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("chrome export not deterministic")
	}
	for _, want := range []string{`"ph": "X"`, `"name": "wf/impl"`, `"cat": "run"`, `"dur": 100000`} {
		if !strings.Contains(a, want) {
			t.Fatalf("export missing %s:\n%s", want, a)
		}
	}
}

func TestWatermark(t *testing.T) {
	tr := New()
	buildTrace(tr)
	mark := tr.Len()
	buildTrace(tr)
	if got := len(tr.Since(mark)); got != 5 {
		t.Fatalf("Since(mark) = %d", got)
	}
}
