// Package experiments contains one driver per table and figure of the
// paper's evaluation (§V): each builds the same rows/series the paper
// reports, from simulated measurement campaigns. The cmd/statebench CLI
// and the repository's benchmarks are thin wrappers over this package.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"statebench/internal/core"
	"statebench/internal/obs"
	"statebench/internal/obs/metrics"
	"statebench/internal/obs/tseries"
	"statebench/internal/payload"
)

// Report is one regenerated table or figure.
type Report struct {
	ID    string
	Title string
	Table obs.Table
	Notes []string
}

// String renders the report as text.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		sb.WriteString("note: " + n + "\n")
	}
	return sb.String()
}

// CSV renders the report's table as RFC-4180-ish CSV with a leading
// comment line carrying the experiment ID, for plotting pipelines.
func (r *Report) CSV() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# %s: %s\n", r.ID, r.Title)
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			sb.WriteString(c)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Table.Header)
	for _, row := range r.Table.Rows {
		writeRow(row)
	}
	return sb.String()
}

// Options tunes campaign sizes. Defaults reproduce the paper's scale;
// tests and quick runs shrink them.
type Options struct {
	// Iters is the per-style iteration count (paper: 100+).
	Iters int
	// ColdHours is the cold-start campaign length in hours (paper: 4
	// days at one request per hour = 96).
	ColdHours int
	// VideoIters is the per-worker-count iteration count for the video
	// experiments (heavier; fewer iterations).
	VideoIters int
	// Fig14Target is the number of worker-scheduling observations to
	// collect (paper: 50,000).
	Fig14Target int
	Seed        uint64
	// Workers bounds the campaign fan-out: how many independent
	// campaigns (experiments, styles, sweep points) run concurrently.
	// 0 = GOMAXPROCS, 1 = one campaign at a time (payload kernels such
	// as the forest fit still use every core). Campaign seeds derive
	// from Seed alone, so every worker count renders byte-identical
	// reports.
	Workers int
	// Metrics, when non-nil, turns on span tracing inside every
	// measurement campaign and aggregates counters/histograms into the
	// shared registry. Writes are commutative, so the registry contents
	// are deterministic at any Workers setting. Report output is
	// byte-identical with or without it.
	Metrics *metrics.Registry
	// Timeline, when non-nil, enables windowed telemetry inside every
	// measurement campaign: each campaign records per-window counters
	// and gauges into a private series and merges it into this shared
	// collector on completion. Merging is commutative, so collector
	// contents are deterministic at any Workers setting; report output
	// is byte-identical with or without it. The CLI's -live and
	// -timeline flags set it.
	Timeline *tseries.Collector
	// PayloadCache is the payload-compute memoization engine shared by
	// every campaign of the run. Nil makes RunAll create a fresh engine
	// per invocation, so each suite run is uniformly cache-cold inside
	// itself while still reusing each computation across its impls,
	// providers, and repetitions; payload.Disabled() turns memoization
	// off (the -payload-cache=off escape hatch). Either way the
	// rendered reports are byte-identical: cached results equal fresh
	// recomputes byte for byte.
	PayloadCache *payload.Engine
}

// DefaultOptions reproduces the paper's campaign sizes.
func DefaultOptions() Options {
	return Options{Iters: 100, ColdHours: 96, VideoIters: 10, Fig14Target: 50000, Seed: 42}
}

// QuickOptions is a fast smoke-scale configuration.
func QuickOptions() Options {
	return Options{Iters: 10, ColdHours: 12, VideoIters: 2, Fig14Target: 2000, Seed: 42}
}

func fmtDur(d time.Duration) string { return obs.FormatDuration(d) }

// sdur converts nanoseconds to a duration (tiny readability helper).
func sdur(ns int64) time.Duration { return time.Duration(ns) }

func fmtUSD(v float64) string { return fmt.Sprintf("$%.6f", v) }

func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// measureOpts builds the standard warm-path measurement options.
func measureOpts(o Options) core.MeasureOptions {
	m := core.DefaultMeasureOptions()
	m.Iters = o.Iters
	m.Seed = o.Seed
	m.Workers = o.Workers
	applyObs(o, &m)
	return m
}

// applyObs layers the shared observability settings onto campaign
// options built outside measureOpts (video sweeps, ablations, tables).
func applyObs(o Options, m *core.MeasureOptions) {
	if o.Metrics != nil {
		m.Metrics = o.Metrics
		m.Tracing = true
	}
	m.Timeline = o.Timeline
	m.PayloadCache = o.payloadCache()
}

// payloadCache returns the run's payload engine, falling back to the
// process-global one for drivers invoked with bare Options (tests
// calling an experiment function directly).
func (o Options) payloadCache() *payload.Engine {
	if o.PayloadCache != nil {
		return o.PayloadCache
	}
	return payload.Shared()
}
