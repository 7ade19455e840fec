package videoproc

import (
	"fmt"
	"testing"
	"time"

	"statebench/internal/core"
)

// fastSpec shrinks the workload so tests stay quick while keeping the
// split/detect/merge structure.
func fastSpec() Spec {
	s := DefaultSpec()
	s.TotalBytes = 10e6
	s.Frames = 600 // ~2 min of detection: enough for parallelism to matter
	return s
}

func measure(t *testing.T, impl core.Impl, workers, iters int, gap time.Duration) *core.Series {
	t.Helper()
	wf := &Workflow{Workers: workers, Spec: fastSpec()}
	opt := core.DefaultMeasureOptions()
	opt.Iters = iters
	opt.Gap = gap
	opt.Seed = 31
	s, err := core.Measure(wf, impl, opt)
	if err != nil {
		t.Fatalf("measure %s: %v", impl, err)
	}
	if s.Errors != 0 {
		t.Fatalf("%s had %d errors", impl, s.Errors)
	}
	return s
}

func TestChunkAccounting(t *testing.T) {
	s := fastSpec()
	totalB, totalF := 0, 0
	for i := 0; i < 7; i++ {
		totalB += s.chunkBytes(i, 7)
		totalF += s.chunkFrames(i, 7)
	}
	if totalB != s.TotalBytes || totalF != s.Frames {
		t.Fatalf("chunks don't cover: %d/%d bytes, %d/%d frames", totalB, s.TotalBytes, totalF, s.Frames)
	}
}

func TestInvalidWorkerCount(t *testing.T) {
	env := core.NewEnv(1)
	if _, err := (&Workflow{Workers: 0}).Deploy(env, core.AWSStep); err == nil {
		t.Fatal("0 workers deployed")
	}
}

func TestAWSParallelismScales(t *testing.T) {
	// Paper Fig 12: more AWS Map workers => much lower latency vs the
	// monolithic Lambda (>80% improvement at high fan-out).
	mono := measure(t, core.AWSLambda, 1, 3, 30*time.Second)
	par := measure(t, core.AWSStep, 10, 3, 30*time.Second)
	improvement := 1 - float64(par.E2E.Median())/float64(mono.E2E.Median())
	if improvement < 0.5 {
		t.Fatalf("AWS-Step 10w improvement = %.0f%% (mono %v, par %v), want >= 50%%",
			improvement*100, mono.E2E.Median(), par.E2E.Median())
	}
}

func TestAzureParallelismFailsToScale(t *testing.T) {
	// Paper Fig 12: Azure durable fan-out does not improve latency the
	// way AWS does — the scale controller adds instances too slowly.
	// With a long gap (cold pool each run), more workers stop helping.
	az10 := measure(t, core.AzDorch, 10, 2, 20*time.Minute)
	az40 := measure(t, core.AzDorch, 40, 2, 20*time.Minute)
	aws10 := measure(t, core.AWSStep, 10, 2, 20*time.Minute)
	aws40 := measure(t, core.AWSStep, 40, 2, 20*time.Minute)

	awsGain := float64(aws10.E2E.Median()) / float64(aws40.E2E.Median())
	azGain := float64(az10.E2E.Median()) / float64(az40.E2E.Median())
	if azGain >= awsGain {
		t.Fatalf("Azure fan-out gain %.2f not worse than AWS %.2f", azGain, awsGain)
	}
	// Azure at 40 workers must not be dramatically better than at 10
	// (the paper saw flat-to-worse).
	if azGain > 1.5 {
		t.Fatalf("Azure gained %.2fx from 4x workers; expected scheduling-bound", azGain)
	}
}

func TestSchedulingDelaysRecorded(t *testing.T) {
	wf := &Workflow{Workers: 20, Spec: fastSpec()}
	opt := core.DefaultMeasureOptions()
	opt.Iters = 1
	opt.Warmup = 0
	opt.Seed = 7
	opt.KeepEnv = true // the scheduling-delay drill-down reads the Env
	s, err := core.Measure(wf, core.AzDorch, opt)
	if err != nil {
		t.Fatal(err)
	}
	delays := WorkerSchedDelays(s.Env)
	if len(delays) < 20 {
		t.Fatalf("recorded %d sched delays, want >= 20 workers", len(delays))
	}
	var max time.Duration
	for _, d := range delays {
		if d > max {
			max = d
		}
	}
	// Cold 20-way fan-out against a 1-instance-per-6s controller must
	// produce multi-minute-scale tails... at least tens of seconds.
	if max < 30*time.Second {
		t.Fatalf("max sched delay %v, want >= 30s under cold fan-out", max)
	}
}

func TestMonolithsAgreeAcrossClouds(t *testing.T) {
	aws := measure(t, core.AWSLambda, 1, 2, 30*time.Second)
	az := measure(t, core.AzFunc, 1, 2, 30*time.Second)
	// Azure consumption runs the same work slower (speed factor).
	if az.E2E.Median() <= aws.E2E.Median() {
		t.Fatalf("Az-Func %v not slower than AWS-Lambda %v", az.E2E.Median(), aws.E2E.Median())
	}
}

func TestStepTransitionsScaleWithWorkers(t *testing.T) {
	s10 := measure(t, core.AWSStep, 10, 2, 30*time.Second)
	s20 := measure(t, core.AWSStep, 20, 2, 30*time.Second)
	// Split + Map + N iterations + Merge.
	if s10.MeanTxns != 13 || s20.MeanTxns != 23 {
		t.Fatalf("transitions = %v/%v, want 13/23", s10.MeanTxns, s20.MeanTxns)
	}
}

// TestKeysMatchSprintf checks the blob keys against their fmt.Sprintf
// forms at 0, at the edge of each pad width and past it.
func TestKeysMatchSprintf(t *testing.T) {
	for _, run := range []int64{0, 999999, 1000000} {
		for _, i := range []int{0, 9999, 10000} {
			for _, c := range [][2]string{
				{chunkKey(run, i), fmt.Sprintf("tmp/video%06d/chunk-%04d", run, i)},
				{resultKey(run, i), fmt.Sprintf("tmp/video%06d/result-%04d", run, i)},
			} {
				if c[0] != c[1] {
					t.Errorf("key %q, want %q", c[0], c[1])
				}
			}
		}
	}
}
