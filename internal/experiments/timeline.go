package experiments

import (
	"fmt"
	"time"

	"statebench/internal/chaos"
	"statebench/internal/core"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/parallel"
	"statebench/internal/traffic"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
	"statebench/internal/workloads/videoproc"
)

// This file holds the timeline experiment: three scenarios chosen to
// re-create the transient pathologies the paper reads off its figures —
// the Az-Queue scheduling delays behind Fig 8's queue-time bars, the
// repeated cold fan-outs behind Fig 13's orchestrator start delays, and
// scale-controller backlog under bursty open-loop load — each recorded
// into a virtual-time windowed series and run through the deterministic
// anomaly detector. The report is the anomaly log: which windows the
// rules flag, against what baseline, cross-linked to the span trees
// that evidence them. Like crosscloud and traffic it is not part of the
// paper's output: run it with the `timeline` experiment ID.

// timelineScenario is one recorded run: a window series to detect
// over, the spans to cross-link (nil for span-free producers), and the
// scenario's detector tuning.
type timelineScenario struct {
	name   string
	series *tseries.Series
	spans  []span.Span
	cfg    tseries.DetectorConfig
}

// timelineMeasure runs one workflow campaign with windowed telemetry
// and tracing on, recording into the shared collector when the run has
// one (the -live path) or a private one otherwise.
func timelineMeasure(o Options, wf core.Workflow, impl core.Impl, tune func(*core.MeasureOptions)) (*core.Series, error) {
	opt := measureOpts(o)
	opt.Tracing = true
	if opt.Timeline == nil {
		opt.Timeline = tseries.NewCollector(0)
	}
	if tune != nil {
		tune(&opt)
	}
	return core.Measure(wf, impl, opt)
}

// Timeline records the three scenarios and tabulates every anomaly the
// detector flags. Scale derives from o.Iters / o.VideoIters so -quick
// shrinks it like every other experiment.
func Timeline(o Options) (*Report, error) {
	runs := []func(Options) (timelineScenario, error){
		timelineQueueScenario,
		timelineFanoutScenario,
		timelineBurstScenario,
	}
	scenarios, err := parallel.Map(o.Workers, len(runs), func(i int) (timelineScenario, error) {
		return runs[i](o)
	})
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:    "timeline",
		Title: "Windowed telemetry anomalies (1s virtual windows, deterministic detector)",
	}
	r.Table.Header = []string{"scenario", "rule", "window", "span", "value", "baseline", "traces", "detail"}
	for _, sc := range scenarios {
		anoms := tseries.Detect(sc.series, sc.cfg)
		tseries.LinkSpans(anoms, sc.spans, 3)
		for _, a := range anoms {
			r.Table.AddRow(
				sc.name,
				a.Rule,
				fmt.Sprintf("%d", a.Window),
				fmt.Sprintf("%d", a.Windows),
				fmt.Sprintf("%.2f", a.Value),
				fmt.Sprintf("%.2f", a.Baseline),
				fmt.Sprintf("%d", len(a.TraceIDs)),
				a.Detail,
			)
		}
		arr, comp, colds, faults := sc.series.Totals()
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s: %d windows, %d arrivals, %d completions, %d colds, %d faults",
			sc.name, sc.series.Len(), arr, comp, colds, faults))
	}
	r.Notes = append(r.Notes,
		"rules: cold-surge and sched-spike flag vs a 30-window trailing median; backlog-growth flags sustained queue-depth climbs; slo-burn flags windows burning >=10x error budget",
		"windows, anomalies, and trace links are byte-identical at any -parallel")
	return r, nil
}

// timelineQueueScenario is the Fig 8 pathology: the large-dataset ML
// training workflow on Az-Queue under a deterministic fault schedule,
// whose queue hand-offs and redeliveries surface as scheduling-delay
// and fault windows.
func timelineQueueScenario(o Options) (timelineScenario, error) {
	s, err := timelineMeasure(o, mltrain.New(mlpipe.Large), core.AzQueue, func(m *core.MeasureOptions) {
		m.Chaos = chaos.DefaultPlan(DefaultFaultRate)
	})
	if err != nil {
		return timelineScenario{}, err
	}
	return timelineScenario{
		name:   "mltrain-large/Az-Queue",
		series: s.Timeline,
		spans:  s.Trace.Spans(),
		cfg:    tseries.DetectorConfig{},
	}, nil
}

// timelineFanoutScenario is the Fig 13 pathology: repeated cold video
// fan-outs on the Azure orchestrator. The 20-minute gap outlasts every
// idle timeout, so each iteration provisions the whole worker set cold
// — a cold-start storm against an idle trailing baseline.
func timelineFanoutScenario(o Options) (timelineScenario, error) {
	iters := o.VideoIters
	if iters < 2 {
		iters = 2
	}
	s, err := timelineMeasure(o, videoproc.New(20), core.AzDorch, func(m *core.MeasureOptions) {
		m.Iters = iters
		m.Warmup = 0
		m.Gap = 20 * time.Minute
	})
	if err != nil {
		return timelineScenario{}, err
	}
	return timelineScenario{
		name:   "video-20/Az-Dorch",
		series: s.Timeline,
		spans:  s.Trace.Spans(),
		cfg:    tseries.DetectorConfig{},
	}, nil
}

// timelineBurstScenario is the open-loop pathology: a bursty MMPP
// arrival stream over a tenant population on the Azure serving model,
// where burst onsets outrun the scale controller — backlog growth,
// scheduling spikes, and SLO burn during the ramp.
func timelineBurstScenario(o Options) (timelineScenario, error) {
	spec, ok := core.Provider(core.Azure)
	if !ok || spec.Traffic == nil {
		return timelineScenario{}, fmt.Errorf("timeline: Azure provider has no traffic profile")
	}
	rate := 20 * float64(o.Iters)
	tl := tseries.New(o.Timeline.Interval())
	cfg := traffic.Config{
		Tenants:  100 * o.Iters,
		Duration: 90 * time.Second,
		Process: &traffic.MMPP2{
			BaseRate: rate / 2, BurstRate: 3 * rate,
			BaseDwell: 20 * time.Second, BurstDwell: 5 * time.Second,
		},
		Profile:    spec.Traffic(),
		Book:       spec.DefaultBook(),
		CodeSizeMB: 64,
		Seed:       o.Seed,
		Timeline:   tl,
	}
	traffic.Run(cfg)
	if o.Timeline != nil {
		o.Timeline.Merge(tl)
		o.Timeline.AddDone()
	}
	return timelineScenario{
		name:   "burst/Azure-traffic",
		series: tl,
		cfg:    tseries.DetectorConfig{SLOTarget: 2 * time.Second},
	}, nil
}
