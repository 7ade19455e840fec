package chaos

import (
	"testing"
	"time"

	"statebench/internal/sim"
)

// drive pulls n decisions for (component, name) out of in and returns
// the fault sequence as a compact signature.
func drive(in *Injector, component, name string, n int) []Kind {
	out := make([]Kind, n)
	for i := 0; i < n; i++ {
		if f, ok := in.Next(sim.TraceContext{}, component, name); ok {
			out[i] = f.Kind
		}
	}
	return out
}

func kindsEqual(a, b []Kind) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSameSeedSameSchedule(t *testing.T) {
	plan := DefaultPlan(0.2)
	a := NewInjector(sim.NewKernel(7), plan)
	b := NewInjector(sim.NewKernel(7), plan)
	if !kindsEqual(drive(a, "lambda", "fn", 200), drive(b, "lambda", "fn", 200)) {
		t.Fatal("same seed and plan produced different fault schedules")
	}
	c := NewInjector(sim.NewKernel(8), plan)
	if kindsEqual(drive(a, "lambda", "fn", 200), drive(c, "lambda", "fn", 200)) {
		t.Fatal("different seeds produced identical 200-decision schedules")
	}
}

func TestSaltPerturbsSchedule(t *testing.T) {
	p1 := DefaultPlan(0.2)
	p2 := DefaultPlan(0.2)
	p2.Salt = 99
	a := NewInjector(sim.NewKernel(7), p1)
	b := NewInjector(sim.NewKernel(7), p2)
	if kindsEqual(drive(a, "lambda", "fn", 200), drive(b, "lambda", "fn", 200)) {
		t.Fatal("different salts produced identical schedules")
	}
}

// TestCrossComponentIndependence is the core determinism property: the
// fault schedule of one site must not shift when decisions for another
// site are interleaved (decisions are stateless hashes, not draws from
// a shared sequence).
func TestCrossComponentIndependence(t *testing.T) {
	plan := DefaultPlan(0.2)
	solo := NewInjector(sim.NewKernel(7), plan)
	want := drive(solo, "lambda", "fn", 100)

	mixed := NewInjector(sim.NewKernel(7), plan)
	got := make([]Kind, 0, 100)
	for i := 0; i < 100; i++ {
		// Interleave decisions for other sites between every lambda draw.
		mixed.Next(sim.TraceContext{}, "queue", "q1")
		mixed.Next(sim.TraceContext{}, "durable", "orch")
		if f, ok := mixed.Next(sim.TraceContext{}, "lambda", "fn"); ok {
			got = append(got, f.Kind)
		} else {
			got = append(got, "")
		}
		mixed.Next(sim.TraceContext{}, "azfunc", "fn2")
	}
	if !kindsEqual(want, got) {
		t.Fatal("interleaved decisions for other components shifted the lambda schedule")
	}
}

func TestRuleMatching(t *testing.T) {
	k := sim.NewKernel(1)
	in := NewInjector(k, &Plan{Rules: []Rule{
		{Component: "lambda", Name: "victim", Kind: TransientError, Rate: 1},
	}})
	if _, ok := in.Next(sim.TraceContext{}, "lambda", "other"); ok {
		t.Fatal("rule fired for non-matching name")
	}
	if _, ok := in.Next(sim.TraceContext{}, "queue", "victim"); ok {
		t.Fatal("rule fired for non-matching component")
	}
	f, ok := in.Next(sim.TraceContext{}, "lambda", "victim")
	if !ok || f.Kind != TransientError {
		t.Fatalf("rule did not fire for matching site: %v %v", f, ok)
	}
	if f.Delay != 10*time.Millisecond {
		t.Fatalf("default TransientError delay = %v, want 10ms", f.Delay)
	}
}

func TestMaxFaultsAndAfter(t *testing.T) {
	k := sim.NewKernel(1)
	in := NewInjector(k, &Plan{Rules: []Rule{
		{Component: "lambda", Kind: Crash, Rate: 1, MaxFaults: 2, After: 3},
	}})
	fired := 0
	firstIdx := -1
	for i := 0; i < 10; i++ {
		if _, ok := in.Next(sim.TraceContext{}, "lambda", "fn"); ok {
			fired++
			if firstIdx < 0 {
				firstIdx = i
			}
		}
	}
	if fired != 2 {
		t.Fatalf("rule fired %d times, want MaxFaults=2", fired)
	}
	if firstIdx != 3 {
		t.Fatalf("rule first fired at invocation %d, want After=3", firstIdx)
	}
	st := in.Stats()
	if st.Injected != 2 {
		t.Fatalf("stats = %+v, want 2 injected crashes", st)
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	k := sim.NewKernel(1)
	in := NewInjector(k, &Plan{Rules: []Rule{
		{Component: "queue", Kind: Redeliver, Rate: 1},
		{Component: "queue", Kind: Duplicate, Rate: 1},
	}})
	f, ok := in.Next(sim.TraceContext{}, "queue", "q")
	if !ok || f.Kind != Redeliver {
		t.Fatalf("got %v %v, want first rule (Redeliver) to win", f, ok)
	}
}

func TestNilInjectorIsSafe(t *testing.T) {
	var in *Injector
	if _, ok := in.Next(sim.TraceContext{}, "lambda", "fn"); ok {
		t.Fatal("nil injector injected a fault")
	}
	in.NoteRetry()
	in.NoteRedispatch()
	in.NoteDeadLetter(sim.TraceContext{}, "q")
	if in.RedeliveryDelay() != 0 {
		t.Fatal("nil injector has a redelivery delay")
	}
	if st := in.Stats(); st != (Stats{}) {
		t.Fatalf("nil injector stats = %+v, want zero", st)
	}
	if NewInjector(sim.NewKernel(1), nil) != nil {
		t.Fatal("NewInjector(nil plan) != nil")
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	in := NewInjector(sim.NewKernel(1), &Plan{Rules: []Rule{{Kind: Crash, Rate: 0}}})
	for i := 0; i < 1000; i++ {
		if _, ok := in.Next(sim.TraceContext{}, "lambda", "fn"); ok {
			t.Fatal("rate-0 rule fired")
		}
	}
}

// TestRateConvergence sanity-checks the hash's uniformity: a rate-0.3
// rule should fire on roughly 30% of decisions.
func TestRateConvergence(t *testing.T) {
	in := NewInjector(sim.NewKernel(123), &Plan{Rules: []Rule{{Kind: TransientError, Rate: 0.3}}})
	n, fired := 5000, 0
	for i := 0; i < n; i++ {
		if _, ok := in.Next(sim.TraceContext{}, "lambda", "fn"); ok {
			fired++
		}
	}
	frac := float64(fired) / float64(n)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("rate-0.3 rule fired at %.3f over %d decisions", frac, n)
	}
}
