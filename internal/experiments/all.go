package experiments

import (
	"fmt"

	"statebench/internal/parallel"
	"statebench/internal/payload"
)

// Runner is a named experiment entry point.
type Runner struct {
	ID  string
	Run func(Options) ([]*Report, error)
}

// single adapts a one-report driver.
func single(fn func(Options) (*Report, error)) func(Options) ([]*Report, error) {
	return func(o Options) ([]*Report, error) {
		r, err := fn(o)
		if err != nil {
			return nil, err
		}
		return []*Report{r}, nil
	}
}

// Registry lists every experiment in paper order.
func Registry() []Runner {
	return []Runner{
		{"table1", func(Options) ([]*Report, error) { return []*Report{Table1()}, nil }},
		{"table2", single(Table2)},
		{"fig6", Fig6},
		{"fig7", single(Fig7)},
		{"fig8", single(Fig8)},
		{"fig9", single(Fig9)},
		{"fig10", single(Fig10)},
		{"fig11", Fig11},
		{"fig12", single(Fig12)},
		{"fig13", single(Fig13)},
		{"fig14", single(Fig14)},
		{"fig15", single(Fig15)},
		{"table3", single(Table3)},
	}
}

// RegistryWithAblations appends the ablation studies and the
// cross-provider comparison to the paper experiments. The extras live
// here, not in Registry, so the default run's output never changes as
// studies (or providers) are added.
func RegistryWithAblations() []Runner {
	extra := append(Ablations(),
		Runner{"crosscloud", single(CrossCloud)},
		Runner{"traffic", single(TrafficSweep)},
		Runner{"timeline", single(Timeline)},
		Runner{"netherite", NetheriteHubs},
		Runner{"optimize", single(Optimize)},
	)
	return append(Registry(), extra...)
}

// Find returns the runner with the given ID (paper experiments and
// ablations).
func Find(id string) (Runner, error) {
	for _, r := range RegistryWithAblations() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// RunAll executes the given runners, fanning the independent
// experiments across o.Workers goroutines, and concatenates the
// reports in runner order. Reports are slotted by runner index and
// every campaign seed derives from o.Seed, so the output is
// byte-identical to a sequential run at any worker count; on failure
// the lowest-numbered runner's error is reported.
func RunAll(runners []Runner, o Options) ([]*Report, error) {
	if o.PayloadCache == nil {
		// Fresh engine per run: every computation happens exactly once
		// inside this run and never leaks across runs, so benchmark
		// numbers don't depend on in-process call order.
		o.PayloadCache = payload.NewEngine()
	}
	results, err := parallel.Map(o.Workers, len(runners), func(i int) ([]*Report, error) {
		reports, err := runners[i].Run(o)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", runners[i].ID, err)
		}
		return reports, nil
	})
	if err != nil {
		return nil, err
	}
	// One emission per run, after every campaign has finished: totals
	// are worker-count-independent (misses = distinct keys, hits =
	// lookups - misses), unlike any per-campaign split.
	if o.Metrics != nil {
		o.PayloadCache.EmitTo(o.Metrics)
	}
	var out []*Report
	for _, reports := range results {
		out = append(out, reports...)
	}
	return out, nil
}
