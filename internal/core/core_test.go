package core

import (
	"testing"
	"time"

	"statebench/internal/sim"
)

func TestImplProperties(t *testing.T) {
	if len(AllImpls()) != 6 {
		t.Fatal("six styles expected")
	}
	cases := []struct {
		impl     Impl
		cloud    CloudKind
		stateful bool
	}{
		{AWSLambda, AWS, false},
		{AWSStep, AWS, true},
		{AzFunc, Azure, false},
		{AzQueue, Azure, false},
		{AzDorch, Azure, true},
		{AzDent, Azure, true},
	}
	for _, c := range cases {
		if c.impl.Cloud() != c.cloud || c.impl.Stateful() != c.stateful {
			t.Errorf("%s: cloud=%v stateful=%v", c.impl, c.impl.Cloud(), c.impl.Stateful())
		}
	}
	if AWS.String() != "AWS" || Azure.String() != "Azure" {
		t.Fatal("cloud names")
	}
}

// fakeWorkflow is a minimal workflow for framework tests: one simulated
// function on each cloud with fixed behavior.
type fakeWorkflow struct {
	e2e time.Duration
}

func (f *fakeWorkflow) Name() string  { return "fake" }
func (f *fakeWorkflow) Impls() []Impl { return []Impl{AWSLambda, AzFunc} }

type fakeRunner struct {
	env *Env
	d   time.Duration
}

func (r *fakeRunner) Invoke(p *sim.Proc, _ []byte) (RunStats, error) {
	p.Sleep(r.d)
	return RunStats{E2E: r.d, ExecTime: r.d / 2, ColdStart: r.d / 10}, nil
}

func (f *fakeWorkflow) Deploy(env *Env, impl Impl) (*Deployment, error) {
	if !SupportsImpl(f, impl) {
		return nil, &UnsupportedImplError{Workflow: f.Name(), Impl: impl}
	}
	return &Deployment{Runner: &fakeRunner{env: env, d: f.e2e}, FuncCount: 1, CodeSizeMB: 1}, nil
}

func TestMeasureCollectsSeries(t *testing.T) {
	wf := &fakeWorkflow{e2e: 2 * time.Second}
	opt := DefaultMeasureOptions()
	opt.Iters = 7
	s, err := Measure(wf, AWSLambda, opt)
	if err != nil {
		t.Fatal(err)
	}
	if s.E2E.Len() != 7 || s.Cold.Len() != 7 || s.Breakdowns.Len() != 7 {
		t.Fatalf("sample counts %d/%d/%d", s.E2E.Len(), s.Cold.Len(), s.Breakdowns.Len())
	}
	if s.E2E.Median() != 2*time.Second {
		t.Fatalf("median = %v", s.E2E.Median())
	}
	b := s.Breakdowns.AtQuantile(0.5)
	// 2s total = 0.2 cold + 1.0 exec + 0.8 queue.
	if b.ExecTime != time.Second || b.ColdStart != 200*time.Millisecond || b.QueueTime != 800*time.Millisecond {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestMeasureRejectsUnsupportedImpl(t *testing.T) {
	wf := &fakeWorkflow{e2e: time.Second}
	if _, err := Measure(wf, AzDorch, DefaultMeasureOptions()); err == nil {
		t.Fatal("unsupported impl measured")
	}
}

func TestMeasureAllCoversImpls(t *testing.T) {
	wf := &fakeWorkflow{e2e: time.Second}
	opt := DefaultMeasureOptions()
	opt.Iters = 2
	all, err := MeasureAll(wf, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 {
		t.Fatalf("series count = %d", len(all))
	}
}

func TestBreakdownClampsParallelExec(t *testing.T) {
	// Summed exec beyond E2E (parallel stages) must not go negative.
	r := RunStats{E2E: time.Second, ExecTime: 5 * time.Second, ColdStart: 100 * time.Millisecond}
	b := r.Breakdown()
	if b.QueueTime != 0 || b.Total() != time.Second {
		t.Fatalf("breakdown = %+v", b)
	}
}

func TestColdStartCampaignCount(t *testing.T) {
	wf := &fakeWorkflow{e2e: time.Second}
	samples, err := ColdStartCampaignCached(wf, AzFunc, 6, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if samples.Len() != 6 {
		t.Fatalf("samples = %d", samples.Len())
	}
}

func TestEnvIsIndependentPerSeed(t *testing.T) {
	a := NewEnv(1)
	b := NewEnv(1)
	if a.K == b.K {
		t.Fatal("environments share a kernel")
	}
	if a.Scratch == nil {
		t.Fatal("scratch not initialized")
	}
}
