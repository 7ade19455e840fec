package statebench_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"statebench/internal/chaos"
	"statebench/internal/core"
	"statebench/internal/experiments"
	"statebench/internal/obs/metrics"
	"statebench/internal/obs/span"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
)

// renderAll runs every experiment with the given worker count and
// renders the reports to one byte string, the way cmd/statebench does.
func renderAll(t *testing.T, o experiments.Options, workers int) string {
	t.Helper()
	o.Workers = workers
	reports, err := experiments.RunAll(experiments.Registry(), o)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, r := range reports {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestAllIsDeterministicAcrossWorkerCounts is the cross-run determinism
// guarantee behind the parallel campaign scheduler: the full experiment
// suite rendered twice sequentially and once through the worker pool
// must produce byte-identical output, because every campaign seed
// derives from Options.Seed alone, never from scheduling order.
func TestAllIsDeterministicAcrossWorkerCounts(t *testing.T) {
	o := experiments.QuickOptions()
	if testing.Short() || raceEnabled {
		// Same property, smoke scale: -short keeps local edit loops
		// fast and the race detector's 10-20x slowdown would push the
		// quick-scale triple run past the package timeout.
		o = experiments.Options{Iters: 3, ColdHours: 3, VideoIters: 1, Fig14Target: 200, Seed: 42}
	}

	seq1 := renderAll(t, o, 1)
	seq2 := renderAll(t, o, 1)
	if seq1 != seq2 {
		t.Fatal("two sequential runs differ: the suite itself is nondeterministic")
	}
	par := renderAll(t, o, 4)
	if par != seq1 {
		for i := 0; i < len(par) && i < len(seq1); i++ {
			if par[i] != seq1[i] {
				lo := i - 120
				if lo < 0 {
					lo = 0
				}
				t.Fatalf("parallel output diverges from sequential at byte %d:\nsequential: %q\nparallel:   %q",
					i, seq1[lo:min(i+120, len(seq1))], par[lo:min(i+120, len(par))])
			}
		}
		t.Fatalf("parallel output length %d != sequential %d", len(par), len(seq1))
	}
}

// TestTracingPreservesDeterminism is the observability contract: with
// the span tracer and a shared metrics registry enabled, (a) every
// report stays byte-identical to the untraced run, at any worker count,
// and (b) the metrics registry's Prometheus export is itself
// byte-identical across worker counts (all writes are commutative).
func TestTracingPreservesDeterminism(t *testing.T) {
	o := experiments.Options{Iters: 3, ColdHours: 3, VideoIters: 1, Fig14Target: 200, Seed: 42}
	if raceEnabled {
		// The race detector makes each full-suite render ~10x slower;
		// shrink the campaigns so the remaining two renders fit the
		// package timeout while still exercising every experiment.
		o = experiments.Options{Iters: 2, ColdHours: 2, VideoIters: 1, Fig14Target: 100, Seed: 42}
	}

	renderTraced := func(workers int) (string, string) {
		reg := metrics.NewRegistry()
		traced := o
		traced.Metrics = reg
		out := renderAll(t, traced, workers)
		var buf strings.Builder
		if err := reg.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return out, buf.String()
	}

	out1, prom1 := renderTraced(1)
	out4, prom4 := renderTraced(4)
	if out4 != out1 {
		t.Fatal("traced report output differs across worker counts")
	}
	if prom1 != prom4 {
		t.Fatal("metrics export differs across worker counts")
	}
	if !strings.Contains(prom1, "statebench_spans_total") {
		t.Fatalf("metrics export missing span counters:\n%.400s", prom1)
	}

	if !raceEnabled {
		// Tracing must also not change the results themselves. Under
		// -race this third render is skipped for time; the same property
		// is covered at Measure granularity by internal/core's
		// TestTracingDoesNotChangeResults.
		if baseline := renderAll(t, o, 1); out1 != baseline {
			t.Fatal("tracing+metrics changed report output")
		}
	}
}

// TestChaosPreservesDeterminism is the chaos golden guarantee: one
// seed plus one fault plan fixes the entire campaign — measured series,
// fault statistics, Chrome trace JSON, and Prometheus export are all
// byte-identical across repeated runs and across worker counts. Fault
// schedules are stateless hashes of (seed, site, invocation index), so
// scheduling order can never shift them.
func TestChaosPreservesDeterminism(t *testing.T) {
	iters := 5
	if testing.Short() || raceEnabled {
		iters = 3
	}
	wf := mltrain.New(mlpipe.Small)

	render := func(workers int) string {
		reg := metrics.NewRegistry()
		opt := core.DefaultMeasureOptions()
		opt.Iters = iters
		opt.Seed = 7
		opt.Workers = workers
		opt.Tracing = true
		opt.Metrics = reg
		opt.Chaos = chaos.DefaultPlan(0.2)
		series, err := core.MeasureAll(wf, opt)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		var injected int64
		for _, impl := range wf.Impls() {
			s := series[impl]
			injected += s.Faults.Injected
			fmt.Fprintf(&sb, "%s ok=%.4f err=%d faults=%+v p50=%v p99=%v bill=%.9f txns=%.3f\n",
				impl, s.SuccessRate, s.Errors, s.Faults, s.E2E.Median(), s.E2E.P99(),
				s.MeanBill.Total(), s.MeanTxns)
			var buf bytes.Buffer
			if err := span.WriteChromeTraceWith(&buf, s.Trace.Spans(), nil); err != nil {
				t.Fatal(err)
			}
			sb.Write(buf.Bytes())
			sb.WriteByte('\n')
		}
		if injected == 0 {
			t.Fatal("rate-0.2 plan injected no faults; the campaign exercised nothing")
		}
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	seq := render(1)
	if !strings.Contains(seq, "statebench_chaos_faults_total") {
		t.Fatal("metrics export missing chaos fault counters")
	}
	if render(1) != seq {
		t.Fatal("two sequential chaos runs differ: the fault schedule is nondeterministic")
	}
	if render(8) != seq {
		t.Fatal("chaos output differs across worker counts")
	}
}
