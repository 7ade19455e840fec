package experiments

import (
	"fmt"
	"time"

	"statebench/internal/aws/lambda"
	"statebench/internal/core"
	"statebench/internal/obs"
	"statebench/internal/parallel"
	"statebench/internal/platform"
	"statebench/internal/sim"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
	"statebench/internal/workloads/videoproc"
)

// This file holds the ablations DESIGN.md calls out: design choices the
// paper's discussion attributes effects to, each isolated with a knob.

// AblationMemory sweeps the AWS Lambda memory configuration for the
// monolithic ML training function. AWS allocates CPU proportionally to
// configured memory but bills the configured amount — the
// latency-vs-cost tradeoff the paper's §V-B discussion highlights
// ("the user is responsible to tune the memory configuration").
func AblationMemory(o Options) (*Report, error) {
	arts, err := mlpipe.TrainWith(o.payloadCache(), mlpipe.Small)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "ablation-memory", Title: "AWS Lambda memory configuration sweep (ML training monolith)"}
	r.Table.Header = []string{"memory", "median E2E", "GB-s/run", "compute cost/run"}
	memories := []int{512, 1024, 1536, 2048, 3072}
	rows, err := parallel.Map(o.Workers, len(memories), func(idx int) ([]string, error) {
		memMB := memories[idx]
		env := core.NewEnv(o.Seed)
		s3 := env.AWS.S3
		// The dataset bytes are immutable pipeline artifacts; share them
		// across the sweep points instead of copying per configuration.
		s3.PreloadShared("dataset", arts.DatasetCSV)
		// CPU share scales with configured memory (1792 MB = 1 vCPU).
		speed := float64(memMB) / 1536
		costs := mlpipe.NewCosts(env.K, fmt.Sprintf("mem-%d", memMB), speed)
		fn := fmt.Sprintf("mono-%d", memMB)
		env.AWS.Lambda.MustRegister(lambda.Config{
			Name: fn, MemoryMB: memMB, ConsumedMemMB: mlpipe.MemMonolith,
			Handler: func(ctx *lambda.Context, payload []byte) ([]byte, error) {
				p := ctx.Proc()
				if _, err := s3.Get(p, "dataset"); err != nil {
					return nil, err
				}
				ctx.Busy(costs.MonolithTrain(mlpipe.Small))
				return nil, nil
			},
		})
		var samples obs.Samples
		env.K.Spawn("driver", func(p *sim.Proc) {
			defer env.Stop() // quiesce the idle Azure listeners
			for i := 0; i < o.Iters; i++ {
				inv, err := env.AWS.Lambda.Invoke(p, fn, nil)
				if err != nil {
					return
				}
				samples.Add(inv.Total)
				p.Sleep(30 * time.Second)
			}
		})
		env.K.Run()
		m := env.AWS.Lambda.TotalMeter()
		gbs := m.BilledGBs / float64(o.Iters)
		return []string{fmt.Sprintf("%d MB", memMB), fmtDur(samples.Median()),
			fmt.Sprintf("%.2f", gbs), fmtUSD(gbs * env.AWSPrices.LambdaGBs)}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Table.Rows = append(r.Table.Rows, rows...)
	r.Notes = append(r.Notes, "CPU scales with configured memory, but so does the bill: past the workload's parallelism the extra GB-s buy nothing")
	return r, nil
}

// AblationKeepAlive sweeps the Lambda container keep-alive window and
// reports how many requests land cold at a fixed request interval —
// the mechanism behind every cold-start figure.
func AblationKeepAlive(o Options) (*Report, error) {
	r := &Report{ID: "ablation-keepalive", Title: "Cold-start rate vs container keep-alive (requests every 10 min)"}
	r.Table.Header = []string{"keep-alive", "cold fraction", "median cold delay"}
	wf := mltrain.New(mlpipe.Small)
	keeps := []time.Duration{2 * time.Minute, 8 * time.Minute, 15 * time.Minute, 30 * time.Minute}
	rows, err := parallel.Map(o.Workers, len(keeps), func(idx int) ([]string, error) {
		keep := keeps[idx]
		ap := platform.DefaultAWS()
		ap.KeepAlive = keep
		env := core.NewEnvWithParams(o.Seed, ap, platform.DefaultAzure())
		dep, err := wf.Deploy(env, core.AWSLambda)
		if err != nil {
			return nil, err
		}
		cold := 0
		var delays obs.Samples
		n := o.Iters
		env.K.Spawn("driver", func(p *sim.Proc) {
			defer env.Stop() // quiesce the idle Azure listeners
			for i := 0; i < n; i++ {
				stats, err := dep.Runner.Invoke(p, nil)
				if err != nil {
					return
				}
				if stats.ColdStart > 0 {
					cold++
					delays.Add(stats.ColdStart)
				}
				p.Sleep(10 * time.Minute)
			}
		})
		env.K.Run()
		return []string{fmtDur(keep), fmtPct(float64(cold) / float64(n)), fmtDur(delays.Median())}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Table.Rows = append(r.Table.Rows, rows...)
	r.Notes = append(r.Notes, "keep-alive beyond the request interval eliminates cold starts entirely")
	return r, nil
}

// AblationMapConcurrency sweeps the AWS Map state's MaxConcurrency for
// the 40-worker video workload: the bounded fan-out the ASL forces a
// user to choose, against Azure's unbounded (but scheduler-throttled)
// fan-out.
func AblationMapConcurrency(o Options) (*Report, error) {
	r := &Report{ID: "ablation-mapconcurrency", Title: "AWS Map MaxConcurrency sweep (video, 40 chunks)"}
	r.Table.Header = []string{"MaxConcurrency", "median E2E"}
	concs := []int{1, 5, 10, 20, 0}
	rows, err := parallel.Map(o.Workers, len(concs), func(idx int) ([]string, error) {
		conc := concs[idx]
		wf := &videoproc.Workflow{Workers: 40, Spec: videoproc.DefaultSpec(), MapConcurrency: conc}
		opt := core.DefaultMeasureOptions()
		opt.Iters = o.VideoIters
		opt.Seed = o.Seed
		applyObs(o, &opt)
		s, err := core.Measure(wf, core.AWSStep, opt)
		if err != nil {
			return nil, err
		}
		label := fmt.Sprintf("%d", conc)
		if conc == 0 {
			label = "unbounded"
		}
		return []string{label, fmtDur(s.E2E.Median())}, nil
	})
	if err != nil {
		return nil, err
	}
	r.Table.Rows = append(r.Table.Rows, rows...)
	r.Notes = append(r.Notes, "AWS fan-out latency is bounded by MaxConcurrency alone; there is no scale-controller penalty")
	return r, nil
}

// AblationEntityInference contrasts the two inference designs the
// paper discusses in §IV: running operations inside serialized entities
// versus fetching state with "get" and computing in stateless
// activities — Fig 9's Az-Dent vs Az-Dorch gap, isolated.
func AblationEntityInference(o Options) (*Report, error) {
	r, err := Fig9(o)
	if err != nil {
		return nil, err
	}
	r.ID = "ablation-entity-inference"
	r.Title = "Entity-op inference vs get-then-stateless-activity (paper §IV)"
	r.Notes = append(r.Notes,
		"Az-Dent runs feature engineering and prediction inside serialized entity operations; Az-Dorch reads state with 'get' and computes in activities")
	return r, nil
}

// Ablations lists the ablation experiments.
func Ablations() []Runner {
	return []Runner{
		{"ablation-memory", single(AblationMemory)},
		{"ablation-keepalive", single(AblationKeepAlive)},
		{"ablation-mapconcurrency", single(AblationMapConcurrency)},
		{"ablation-entity-inference", single(AblationEntityInference)},
		{"reliability", single(Reliability)},
	}
}
