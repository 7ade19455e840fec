package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"statebench/internal/core"
	"statebench/internal/experiments"
	"statebench/internal/obs"
	"statebench/internal/optimizer"
	"statebench/internal/payload"
	"statebench/internal/traffic"
)

// goldenSeed is the seed the checked-in goldens were rendered at.
const goldenSeed = 42

// result is one workload call's deterministic output and counts.
type result struct {
	// output is the rendered, seed-determined output the check reads.
	output string
	// attempted/failed count the work the run was asked to do and what
	// did not complete: one run for closed-loop workloads, requests for
	// open-loop.
	attempted, failed uint64
	// events is the kernel events executed, where the workload exposes
	// them.
	events uint64
	layers map[string]float64
}

// workload is one benchmark input. prepare builds everything the run
// needs (that is set-up time); the returned function makes the timed
// calls. check compares the output with the golden at goldenSeed and
// with the workload's invariants everywhere; it reports whether the
// golden was compared and every problem found. probe, when set, is the
// traced run's drill-down into the layer this workload stresses most.
type workload struct {
	prepare func(seed uint64, workers int, tr *tracing, spans *spanLog) (func() (*result, error), error)
	check   func(seed uint64, res *result) (golden bool, problems []string)
	probe   func(seed uint64, workers int, spans *spanLog) (map[string]float64, error)
}

var workloads = map[string]workload{
	"paper-hub": {preparePaperHub, checkPaperHub, census},
	"ml-sweep":  {prepareMLSweep, checkMLSweep, sweepDrillDown},
	"open-loop": {prepareOpenLoop, checkOpenLoop, nil},
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// paperHubIDs are the paper experiments whose host time is control-plane
// simulation: hours of classic-hub idle polling (fig10, fig15) and 50k
// Azure worker schedulings with Durable history replay (fig14).
var paperHubIDs = []string{"fig10", "fig14", "fig15"}

func preparePaperHub(seed uint64, workers int, tr *tracing, spans *spanLog) (func() (*result, error), error) {
	o := experiments.DefaultOptions()
	o.Seed = seed
	o.Workers = workers
	eng := payload.NewEngine()
	o.PayloadCache = eng
	tr.instrument(&o)
	var runners []experiments.Runner
	for _, id := range paperHubIDs {
		r, err := experiments.Find(id)
		if err != nil {
			return nil, err
		}
		run := r.Run
		r.Run = func(o experiments.Options) ([]*experiments.Report, error) {
			defer spans.start("exp." + r.ID).end()
			return run(o)
		}
		runners = append(runners, r)
	}
	return func() (*result, error) {
		sp := spans.start("experiments.RunAll")
		reports, err := experiments.RunAll(runners, o)
		sp.end()
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		for _, r := range reports {
			// The CLI prints each report with Println.
			sb.WriteString(r.String())
			sb.WriteByte('\n')
		}
		return &result{output: sb.String(), attempted: 1, layers: payloadLayers(eng.Stats())}, nil
	}, nil
}

// checkPaperHub compares the rendered sections with the same sections
// of the paper-scale golden at the golden seed, and everywhere demands
// exactly the golden's section headers in order.
func checkPaperHub(seed uint64, res *result) (bool, []string) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "default_p1.txt"))
	if err != nil {
		return false, []string{"read golden: " + err.Error()}
	}
	want := sections(string(golden), paperHubIDs)
	if seed == goldenSeed {
		if res.output != want {
			return true, []string{"fig10/fig14/fig15 differ from testdata/golden/default_p1.txt"}
		}
		return true, nil
	}
	if got, exp := headers(res.output), headers(want); got != exp {
		return false, []string{fmt.Sprintf("section headers %q, want %q", got, exp)}
	}
	return false, nil
}

// sections returns the text of the given report IDs' sections of a
// rendered report stream, in stream order.
func sections(text string, ids []string) string {
	keep := map[string]bool{}
	for _, id := range ids {
		keep[id] = true
	}
	var sb strings.Builder
	on := false
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "== ") {
			id, _, _ := strings.Cut(strings.TrimPrefix(line, "== "), ":")
			on = keep[id]
		}
		if on {
			sb.WriteString(line)
		}
	}
	return sb.String()
}

// headers lists a report stream's section IDs, ignoring titles (fig14's
// title carries the seed-dependent observation count).
func headers(text string) string {
	var ids []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "== ") {
			id, _, _ := strings.Cut(strings.TrimPrefix(line, "== "), ":")
			ids = append(ids, id)
		}
	}
	return strings.Join(ids, ",")
}

func prepareMLSweep(seed uint64, workers int, tr *tracing, spans *spanLog) (func() (*result, error), error) {
	o := experiments.QuickOptions()
	o.Seed = seed
	o.Workers = workers
	eng := payload.NewEngine()
	o.PayloadCache = eng
	tr.instrument(&o)
	return func() (*result, error) {
		sp := spans.start("experiments.OptimizeResults")
		results, err := experiments.OptimizeResults(o)
		sp.end()
		if err != nil {
			return nil, err
		}
		layers := payloadLayers(eng.Stats())
		for _, r := range results {
			measured := 0
			for i := range r.Candidates {
				if r.Candidates[i].Status == optimizer.StatusExcluded {
					layers["optimizer.excluded"]++
				} else {
					measured++
				}
			}
			layers["optimizer.evals"] += float64(r.Evals)
			layers["optimizer.memo_resolved"] += float64(measured - r.Evals)
		}
		report := experiments.OptimizeReport(results, 0, 0).String()
		return &result{output: report, attempted: 1, layers: layers}, nil
	}, nil
}

// checkMLSweep compares the report with the quick-scale optimize golden
// at the golden seed; everywhere, each family's config and exclusion
// counts (properties of the spaces, not of the seed) must match it.
func checkMLSweep(seed uint64, res *result) (bool, []string) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "optimize_quick.txt"))
	if err != nil {
		return false, []string{"read golden: " + err.Error()}
	}
	if seed == goldenSeed {
		if res.output != string(golden) {
			return true, []string{"optimize report differs from testdata/golden/optimize_quick.txt"}
		}
		return true, nil
	}
	if got, want := configCounts(res.output), configCounts(string(golden)); got != want {
		return false, []string{fmt.Sprintf("config counts %q, want %q", got, want)}
	}
	return false, nil
}

// configCounts extracts the "<family>: N configs, M excluded" prefix of
// each family's summary note.
func configCounts(report string) string {
	var out []string
	for _, line := range strings.Split(report, "\n") {
		if i := strings.Index(line, " excluded, "); i >= 0 && strings.Contains(line, " configs, ") {
			out = append(out, strings.TrimPrefix(line[:i], "note: "))
		}
	}
	return strings.Join(out, "; ")
}

// Open-loop shape: 30 virtual seconds of Poisson arrivals at 50k req/s
// over a million tenants, on 8 kernel shards.
const (
	openLoopTenants = 1_000_000
	openLoopRate    = 50_000
	openLoopWindow  = 30 * time.Second
	openLoopShards  = 8
)

func prepareOpenLoop(seed uint64, _ int, tr *tracing, spans *spanLog) (func() (*result, error), error) {
	// The per-request model (AWS) and the instance-pool model (Azure).
	var cfgs []traffic.Config
	for i, kind := range []core.CloudKind{core.AWS, core.Azure} {
		spec, ok := core.Provider(kind)
		if !ok || spec.Traffic == nil {
			return nil, fmt.Errorf("no traffic profile for %v", kind)
		}
		cfg := traffic.Config{
			Tenants:    openLoopTenants,
			Duration:   openLoopWindow,
			Process:    traffic.Poisson{Rate: openLoopRate},
			Profile:    spec.Traffic(),
			Book:       spec.DefaultBook(),
			CodeSizeMB: 64,
			Shards:     openLoopShards,
			Seed:       seed + uint64(i),
		}
		tr.instrumentTraffic(&cfg)
		cfgs = append(cfgs, cfg)
	}
	return func() (*result, error) {
		res := &result{layers: map[string]float64{}}
		var rows strings.Builder
		for _, cfg := range cfgs {
			model := cfg.Profile.Style.String()
			sp := spans.start("traffic." + model)
			r := traffic.Run(cfg)
			wall := sp.end()
			tr.mergeTraffic(cfg)
			res.attempted += r.Arrivals
			res.failed += r.Arrivals - r.Completions
			res.events += r.Events
			res.layers["traffic.events"] += float64(r.Events)
			res.layers["traffic.arrivals"] += float64(r.Arrivals)
			res.layers["traffic.cold_starts"] += float64(r.ColdStarts)
			res.layers["traffic."+model+".events_per_s"] = float64(r.Events) / wall.Seconds()
			if v := float64(r.PeakInFlight); v > res.layers["traffic.peak_in_flight"] {
				res.layers["traffic.peak_in_flight"] = v
			}
			fmt.Fprintf(&rows, "%s arrivals=%d completions=%d events=%d cold=%d p50=%s p99=%s p99.9=%s sched-p99.9=%s peak-backlog=%d peak-in-flight=%d tenant-cost-p99=%d total=$%.6f\n",
				model, r.Arrivals, r.Completions, r.Events, r.ColdStarts,
				obs.FormatDuration(r.E2E.Median()), obs.FormatDuration(r.E2E.P99()), obs.FormatDuration(r.E2E.P999()),
				obs.FormatDuration(r.QueueWait.P999()), r.PeakBacklog, r.PeakInFlight,
				int64(r.TenantCost.P99()), r.TotalBill.Total())
		}
		res.output = rows.String()
		return res, nil
	}, nil
}

// checkOpenLoop demands that every arrival completed. Repetition of the
// rows' digest across runs is checked by run.py, which sees every run.
func checkOpenLoop(_ uint64, res *result) (bool, []string) {
	if res.failed > 0 || res.attempted == 0 {
		return false, []string{fmt.Sprintf("%d of %d arrivals did not complete", res.failed, res.attempted)}
	}
	return false, nil
}

func payloadLayers(s payload.Stats) map[string]float64 {
	return map[string]float64{
		"payload.hits":   float64(s.Hits),
		"payload.misses": float64(s.Misses),
		"payload.bytes":  float64(s.Bytes),
	}
}
