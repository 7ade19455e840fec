package mltrain

import (
	"crypto/sha256"
	"encoding/json"
	"testing"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/core"
	"statebench/internal/payload"
	"statebench/internal/sim"
	"statebench/internal/workloads/mlpipe"
)

// measure runs a short campaign on the small dataset (fast: small
// artifacts, few iterations).
func measure(t *testing.T, impl core.Impl, iters int) *core.Series {
	t.Helper()
	wf := New(mlpipe.Small)
	opt := core.DefaultMeasureOptions()
	opt.Iters = iters
	opt.Seed = 11
	s, err := core.Measure(wf, impl, opt)
	if err != nil {
		t.Fatalf("measure %s: %v", impl, err)
	}
	if s.Errors != 0 {
		t.Fatalf("%s had %d run errors", impl, s.Errors)
	}
	return s
}

// invokeOnce deploys and runs one invocation, returning the stats.
func invokeOnce(t *testing.T, impl core.Impl, size mlpipe.DatasetSize) core.RunStats {
	t.Helper()
	env := core.NewEnv(5)
	dep, err := New(size).Deploy(env, impl)
	if err != nil {
		t.Fatalf("deploy %s: %v", impl, err)
	}
	var stats core.RunStats
	var runErr error
	env.K.Spawn("test", func(p *sim.Proc) {
		defer env.Stop()
		stats, runErr = dep.Runner.Invoke(p, nil)
	})
	env.K.Run()
	if runErr != nil {
		t.Fatalf("invoke %s: %v", impl, runErr)
	}
	if stats.Err != nil {
		t.Fatalf("run error %s: %v", impl, stats.Err)
	}
	return stats
}

func TestAllImplsProduceTheCorrectBestFit(t *testing.T) {
	arts, err := mlpipe.TrainWith(payload.Shared(), mlpipe.Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range core.AllImpls() {
		stats := invokeOnce(t, impl, mlpipe.Small)
		var res mlpipe.TrainResult
		if err := json.Unmarshal(stats.Output, &res); err != nil {
			t.Fatalf("%s output %q: %v", impl, stats.Output, err)
		}
		if res.Best != arts.BestName {
			t.Fatalf("%s selected %q, pipeline best is %q", impl, res.Best, arts.BestName)
		}
		if stats.E2E <= 0 {
			t.Fatalf("%s reported no latency", impl)
		}
	}
}

func TestDeployMetadataMatchesTableII(t *testing.T) {
	want := map[core.Impl]struct {
		funcs int
		code  float64
	}{
		core.AWSLambda: {1, 63.1},
		core.AWSStep:   {4, 271.2},
		core.AzFunc:    {1, 304},
		core.AzQueue:   {4, 304},
		core.AzDorch:   {6, 304},
		core.AzDent:    {7, 304},
	}
	for impl, w := range want {
		env := core.NewEnv(1)
		dep, err := New(mlpipe.Small).Deploy(env, impl)
		if err != nil {
			t.Fatalf("deploy %s: %v", impl, err)
		}
		if dep.FuncCount != w.funcs || dep.CodeSizeMB != w.code {
			t.Fatalf("%s metadata = %d/%.1f, want %d/%.1f", impl, dep.FuncCount, dep.CodeSizeMB, w.funcs, w.code)
		}
	}
}

func TestQueueChainSlowerThanMonolith(t *testing.T) {
	// Paper Fig 6a: Az-Queue adds ~30% latency over Az-Func on the
	// small dataset (queue hop waiting).
	mono := measure(t, core.AzFunc, 6)
	chain := measure(t, core.AzQueue, 6)
	if chain.E2E.Median() <= mono.E2E.Median() {
		t.Fatalf("Az-Queue median %v not slower than Az-Func %v", chain.E2E.Median(), mono.E2E.Median())
	}
}

func TestDurableBetweenMonolithAndQueue(t *testing.T) {
	// Paper: durable orchestration overhead sits between the pure
	// function and the manual queue chain.
	mono := measure(t, core.AzFunc, 6)
	dorch := measure(t, core.AzDorch, 6)
	chain := measure(t, core.AzQueue, 6)
	if dorch.E2E.Median() <= mono.E2E.Median() {
		t.Fatalf("Az-Dorch %v not slower than Az-Func %v", dorch.E2E.Median(), mono.E2E.Median())
	}
	if dorch.E2E.Median() >= chain.E2E.Median() {
		t.Fatalf("Az-Dorch %v not faster than Az-Queue %v", dorch.E2E.Median(), chain.E2E.Median())
	}
}

func TestAWSStepAddsOverheadOverLambda(t *testing.T) {
	mono := measure(t, core.AWSLambda, 6)
	step := measure(t, core.AWSStep, 6)
	if step.E2E.Median() <= mono.E2E.Median() {
		t.Fatalf("AWS-Step %v not slower than AWS-Lambda %v", step.E2E.Median(), mono.E2E.Median())
	}
}

func TestDurableGBsExceedMonolith(t *testing.T) {
	// Paper Fig 11a: replay inflates durable GB-s over the stateless
	// function.
	mono := measure(t, core.AzFunc, 6)
	dorch := measure(t, core.AzDorch, 6)
	dent := measure(t, core.AzDent, 6)
	if dorch.MeanGBs <= mono.MeanGBs {
		t.Fatalf("Az-Dorch GB-s %.3f not above Az-Func %.3f", dorch.MeanGBs, mono.MeanGBs)
	}
	if dent.MeanGBs <= dorch.MeanGBs {
		t.Fatalf("Az-Dent GB-s %.3f not above Az-Dorch %.3f", dent.MeanGBs, dorch.MeanGBs)
	}
}

func TestAWSTransitionsCounted(t *testing.T) {
	step := measure(t, core.AWSStep, 4)
	// Prep + DimRed + Map + 3 iterations + Select = 7 transitions.
	if step.MeanTxns != 7 {
		t.Fatalf("mean transitions = %v, want 7", step.MeanTxns)
	}
	mono := measure(t, core.AWSLambda, 4)
	if mono.MeanTxns != 0 {
		t.Fatalf("lambda-only run has %v transitions", mono.MeanTxns)
	}
}

func TestAzureChargesStorageTransactions(t *testing.T) {
	dorch := measure(t, core.AzDorch, 4)
	if dorch.MeanTxns <= 0 {
		t.Fatal("durable run produced no storage transactions")
	}
	if dorch.MeanBill.Stateful <= 0 {
		t.Fatal("durable stateful cost is zero")
	}
}

func TestColdStartCampaignShape(t *testing.T) {
	// Short campaign (6 hours): every request should land cold on
	// every style, and Az-Queue's cold start must dwarf the durable
	// ones (paper Fig 10).
	dorchSamples, err := core.ColdStartCampaignCached(New(mlpipe.Small), core.AzDorch, 5, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	queueSamples, err := core.ColdStartCampaignCached(New(mlpipe.Small), core.AzQueue, 5, 3, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dorchSamples.Len() != 5 || queueSamples.Len() != 5 {
		t.Fatalf("sample counts %d/%d", dorchSamples.Len(), queueSamples.Len())
	}
	if queueSamples.Median() < 5*time.Second {
		t.Fatalf("Az-Queue cold start %v, want >= 5s (poll phase)", queueSamples.Median())
	}
	if dorchSamples.Median() >= queueSamples.Median() {
		t.Fatalf("Az-Dorch cold %v not below Az-Queue %v", dorchSamples.Median(), queueSamples.Median())
	}
}

func TestMeasureDeterministicAcrossRuns(t *testing.T) {
	a := measure(t, core.AzDorch, 3)
	b := measure(t, core.AzDorch, 3)
	if a.E2E.Median() != b.E2E.Median() || a.MeanTxns != b.MeanTxns {
		t.Fatalf("nondeterministic measurement: %v/%v vs %v/%v",
			a.E2E.Median(), a.MeanTxns, b.E2E.Median(), b.MeanTxns)
	}
}

// artifactSums is the SHA-256 of every byte artifact the workloads
// stage by alias.
func artifactSums(a *mlpipe.Artifacts) map[string][32]byte {
	sums := map[string][32]byte{
		"DatasetCSV": sha256.Sum256(a.DatasetCSV),
		"TestCSV":    sha256.Sum256(a.TestCSV),
		"Encoder":    sha256.Sum256(a.EncoderBytes),
		"Scaler":     sha256.Sum256(a.ScalerBytes),
		"PCA":        sha256.Sum256(a.PCABytes),
	}
	for algo, b := range a.ModelBytes {
		sums["Model/"+algo] = sha256.Sum256(b)
	}
	return sums
}

// TestArtifactsStagedByAlias pins what staging the memoized artifacts
// by alias relies on: every style, fault-free and under the default
// chaos plan (whose redeliveries re-run stages), leaves each artifact
// byte for byte as training built it, and a Get of the preloaded
// dataset returns the artifact's own backing array, not a copy.
func TestArtifactsStagedByAlias(t *testing.T) {
	eng := payload.NewEngine()
	arts, err := mlpipe.TrainWith(eng, mlpipe.Small)
	if err != nil {
		t.Fatal(err)
	}
	want := artifactSums(arts)
	wf := New(mlpipe.Small)
	for _, plan := range []*chaos.Plan{nil, chaos.DefaultPlan(0.2)} {
		var injected int64
		for _, impl := range append(wf.Impls(), wf.ExtraImpls()...) {
			opt := core.DefaultMeasureOptions()
			opt.Iters, opt.Seed, opt.PayloadCache, opt.Chaos = 4, 11, eng, plan
			s, err := core.Measure(wf, impl, opt)
			if err != nil {
				t.Fatalf("measure %s: %v", impl, err)
			}
			injected += s.Faults.Injected
		}
		if plan != nil && injected == 0 {
			t.Fatal("the chaos campaigns injected no faults")
		}
	}
	for name, sum := range artifactSums(arts) {
		if sum != want[name] {
			t.Errorf("artifact %s changed while staged by alias", name)
		}
	}

	env := core.NewEnv(5)
	env.Payload = eng
	if _, err := wf.Deploy(env, core.AWSStep); err != nil {
		t.Fatal(err)
	}
	var got []byte
	env.K.Spawn("get", func(p *sim.Proc) {
		defer env.Stop()
		got, err = env.AWS().S3.Get(p, datasetKey(mlpipe.Small))
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(arts.DatasetCSV) || &got[0] != &arts.DatasetCSV[0] {
		t.Fatal("a Get of the preloaded dataset returned a copy, not the artifact's bytes")
	}
}
