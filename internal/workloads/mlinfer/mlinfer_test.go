package mlinfer

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"statebench/internal/chaos"
	"statebench/internal/core"
	"statebench/internal/payload"
	"statebench/internal/sim"
	"statebench/internal/workloads/mlpipe"
)

func measure(t *testing.T, impl core.Impl, iters int) *core.Series {
	t.Helper()
	wf := New(mlpipe.Large)
	opt := core.DefaultMeasureOptions()
	opt.Iters = iters
	opt.Seed = 21
	s, err := core.Measure(wf, impl, opt)
	if err != nil {
		t.Fatalf("measure %s: %v", impl, err)
	}
	if s.Errors != 0 {
		t.Fatalf("%s had %d run errors", impl, s.Errors)
	}
	return s
}

func TestImplsList(t *testing.T) {
	wf := New(mlpipe.Small)
	if len(wf.Impls()) != 3 {
		t.Fatalf("impls = %v", wf.Impls())
	}
	env := core.NewEnv(1)
	if _, err := wf.Deploy(env, core.AzQueue); err == nil {
		t.Fatal("unsupported impl deployed")
	}
}

func TestInferenceRunsOnAllStyles(t *testing.T) {
	for _, impl := range New(mlpipe.Large).Impls() {
		s := measure(t, impl, 5)
		if s.E2E.Median() <= 0 {
			t.Fatalf("%s no latency", impl)
		}
	}
}

func TestAzureFasterThanAWSForInference(t *testing.T) {
	// Paper Fig 9: Azure ≈ 2x faster than AWS-Step because the model
	// comes from warm entities instead of S3 + deserialization.
	aws := measure(t, core.AWSStep, 8)
	dorch := measure(t, core.AzDorch, 8)
	ratio := float64(aws.E2E.Median()) / float64(dorch.E2E.Median())
	if ratio < 1.4 {
		t.Fatalf("AWS/Azure inference ratio = %.2f (aws %v, dorch %v), want >= 1.4",
			ratio, aws.E2E.Median(), dorch.E2E.Median())
	}
}

func TestDentSlowerThanDorch(t *testing.T) {
	// Paper Fig 9: Az-Dent ≈ 24% slower than Az-Dorch (ops inside
	// serialized entities).
	dorch := measure(t, core.AzDorch, 8)
	dent := measure(t, core.AzDent, 8)
	ratio := float64(dent.E2E.Median()) / float64(dorch.E2E.Median())
	if ratio <= 1.05 {
		t.Fatalf("Dent/Dorch ratio = %.2f (dent %v, dorch %v), want > 1.05",
			ratio, dent.E2E.Median(), dorch.E2E.Median())
	}
	if ratio > 2.0 {
		t.Fatalf("Dent/Dorch ratio = %.2f implausibly large", ratio)
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
// byte for byte as training built it, and a Get of the preloaded test
// batch returns the artifact's own backing array, not a copy.
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
			opt.Iters, opt.Seed, opt.PayloadCache, opt.Chaos = 4, 21, eng, plan
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
		got, err = env.AWS().S3.Get(p, testKey(mlpipe.Small))
	})
	env.K.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || &got[0] != &arts.TestCSV[0] {
		t.Fatal("a Get of the preloaded test batch returned a copy, not the artifact's bytes")
	}
}

// TestRunKeyMatchesSprintf checks runKey against its fmt.Sprintf form
// at 0, at the edge of the pad width and past it.
func TestRunKeyMatchesSprintf(t *testing.T) {
	for _, run := range []int64{0, 999999, 1000000} {
		for _, name := range []string{"", "predictions"} {
			if got, want := runKey(run, name), fmt.Sprintf("tmp/infer%06d/%s", run, name); got != want {
				t.Errorf("runKey(%d, %q) = %q, want %q", run, name, got, want)
			}
		}
	}
}
