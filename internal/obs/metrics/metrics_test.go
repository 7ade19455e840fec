package metrics

import (
	"bytes"
	"strings"
	"testing"
)

func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	r.Inc("runs_total", 1, L("impl", "AWS-Step"))
	r.Inc("runs_total", 2, L("impl", "AWS-Step"))
	r.Inc("runs_total", 5, L("impl", "Az-Dorch"))
	if got := r.CounterValue("runs_total", L("impl", "AWS-Step")); got != 3 {
		t.Fatalf("counter = %v", got)
	}
	r.Observe("latency_seconds", 0.5)
	r.Observe("latency_seconds", 90)
	if r.Len() != 3 {
		t.Fatalf("series = %d", r.Len())
	}
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Inc("x", 1)
	r.Observe("z", 3)
	r.SpanFinished("exec", "f", 0.1)
	if r.Len() != 0 {
		t.Fatal("nil registry not empty")
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil write: err=%v len=%d", err, buf.Len())
	}
}

// TestMergeCommutative is the determinism property the shared registry
// relies on: interleaving order of writes never changes the export.
func TestMergeCommutative(t *testing.T) {
	build := func(order []int) string {
		writes := [3]func(r *Registry){
			func(r *Registry) {
				r.Inc("spans_total", 2, L("kind", "exec"))
				r.Observe("dur_seconds", 0.4, L("kind", "exec"))
			},
			func(r *Registry) { r.Inc("spans_total", 1, L("kind", "exec")) },
			func(r *Registry) { r.Observe("dur_seconds", 12, L("kind", "exec")) },
		}
		total := NewRegistry()
		for _, i := range order {
			writes[i](total)
		}
		var buf bytes.Buffer
		if err := total.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	c := build([]int{1, 2, 0})
	if a != b || b != c {
		t.Fatalf("write order changed export:\n%s\nvs\n%s", a, b)
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Inc("statebench_spans_total", 4, L("kind", "exec"))
	r.Observe("statebench_span_duration_seconds", 0.25, L("kind", "exec"), L("name", "lambda/exec/f"))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE statebench_spans_total counter",
		`statebench_spans_total{kind="exec"} 4`,
		"# TYPE statebench_span_duration_seconds histogram",
		`le="+Inf"`,
		"statebench_span_duration_seconds_sum",
		"statebench_span_duration_seconds_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// Deterministic: two renders are identical.
	var buf2 bytes.Buffer
	_ = r.WritePrometheus(&buf2)
	if out != buf2.String() {
		t.Fatal("render not deterministic")
	}
}

func TestSpanFinishedFeedsSeries(t *testing.T) {
	r := NewRegistry()
	r.SpanFinished("exec", "lambda/exec/f", 1.5)
	r.SpanFinished("exec", "lambda/exec/f", 0.5)
	if got := r.CounterValue("statebench_spans_total", L("kind", "exec")); got != 2 {
		t.Fatalf("spans_total = %v", got)
	}
	var buf bytes.Buffer
	_ = r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "statebench_span_duration_seconds_sum") {
		t.Fatalf("histogram missing:\n%s", buf.String())
	}
}
