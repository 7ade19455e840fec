// Package optimizer is the cross-cloud cost/latency sweep engine: it
// mechanizes the paper's headline artifact — the hand-built
// cost-vs-latency comparison across providers — as a deterministic
// search over the configuration space the registries already expose
// (implementation style × provider × memory tier × fan-out ×
// chunking).
//
// A sweep has four phases. Enumeration walks the declared Space and
// yields every candidate configuration in a canonical order.  Static
// pruning rejects configurations no simulation could ever measure —
// styles the workload's IR cannot lower to (flow.ExcludeReason),
// fan-outs beyond the IR limit — and attaches the payload-cap lint's
// advisories; every rejection carries its reason, so the dominated-set
// CSV never silently drops a configuration. Evaluation measures the
// survivors on the parallel campaign scheduler with one payload engine
// shared across the whole sweep, so identical stage computations
// (training the same dataset, counting the same corpus chunk) happen
// once per sweep rather than once per configuration; configurations
// whose canonical signatures collide (a memory tier the provider does
// not bill, a fan-out a monolith ignores) resolve from a single-flight
// memo without replaying the campaign at all. Classification finally
// computes the Pareto frontier over (p50 latency, mean per-run cost)
// plus the cheapest-under-SLO and fastest-under-budget picks.
//
// Everything the optimizer knows about providers comes from the
// core.ProviderSpec and flow.Lowerer registries — the package imports
// no provider and no workload, so a provider registered tomorrow is
// swept tomorrow. Determinism is inherited from the simulator:
// candidate order, evaluation results, and every derived artifact are
// byte-identical at any worker count and under any enumeration order.
package optimizer

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"statebench/internal/core"
	"statebench/internal/flow"
	"statebench/internal/obs/metrics"
	"statebench/internal/parallel"
	"statebench/internal/payload"
)

// Config is one candidate configuration of the sweep space. The zero
// value of each knob means "the workload or provider default", so a
// space that does not sweep a dimension yields candidates with that
// dimension at 0.
type Config struct {
	// Workload is the workload family name ("ml-training-small").
	Workload string
	// Impl is the implementation style (provider × orchestration).
	Impl core.Impl
	// MemMB is the provisioned memory tier (0 = provider default).
	MemMB int
	// FanOut is the workload's fan-out width (0 = workload default).
	FanOut int
	// Chunk is the workload's chunking knob (0 = workload default) —
	// reducer/partition count for MapReduce-shaped workloads.
	Chunk int
}

// Label renders the configuration compactly and uniquely within its
// workload: swept dimensions appear, defaulted ones do not.
func (c Config) Label() string {
	parts := []string{string(c.Impl)}
	if c.MemMB > 0 {
		parts = append(parts, fmt.Sprintf("mem%d", c.MemMB))
	}
	if c.FanOut > 0 {
		parts = append(parts, fmt.Sprintf("fan%d", c.FanOut))
	}
	if c.Chunk > 0 {
		parts = append(parts, fmt.Sprintf("chunk%d", c.Chunk))
	}
	return strings.Join(parts, "/")
}

// less orders configurations canonically: impl (lexical), then memory,
// fan-out, chunk. The sweep sorts candidates with this order after
// enumeration, which is what makes the emitted frontier invariant
// under the space's declaration order.
func (c Config) less(o Config) bool {
	if c.Impl != o.Impl {
		return c.Impl < o.Impl
	}
	if c.MemMB != o.MemMB {
		return c.MemMB < o.MemMB
	}
	if c.FanOut != o.FanOut {
		return c.FanOut < o.FanOut
	}
	return c.Chunk < o.Chunk
}

// Space declares one workload family's sweep dimensions. The optimizer
// learns everything else — which styles exist, which the workload
// lowers to, whether a memory tier shapes the bill — from the core and
// flow registries, so a Space is pure data plus one constructor.
type Space struct {
	// Workload is the family name stamped on every candidate.
	Workload string
	// Build returns a fresh workload with the candidate's knobs
	// applied. Zero knobs mean defaults; Build must be cheap (the
	// optimizer calls it for static inspection as well as evaluation).
	Build func(c Config) core.Workflow
	// MemTiersMB, FanOuts, and Chunks list the dimension values to
	// sweep; an empty dimension means {0} (defaults only). Memory
	// tiers must be valid on every swept provider (GCP validates its
	// discrete tier list at registration).
	MemTiersMB []int
	FanOuts    []int
	Chunks     []int
	// Impls restricts the style dimension; nil sweeps every registered
	// style, in provider registration order.
	Impls []core.Impl
	// ShapeIrrelevantClasses lists graph classes whose lowering
	// ignores FanOut and Chunk — a monolith that recomputes the whole
	// input regardless of the declared fan-out — letting delta
	// evaluation collapse those dimensions for styles of that class.
	ShapeIrrelevantClasses []flow.Class
}

// dim returns values, or the single-default dimension when empty.
func dim(values []int) []int {
	if len(values) == 0 {
		return []int{0}
	}
	return values
}

// Candidate statuses after a sweep.
const (
	// StatusFrontier marks a measured, non-dominated configuration.
	StatusFrontier = "frontier"
	// StatusDominated marks a measured configuration beaten on both
	// axes by another; Reason names a dominating configuration.
	StatusDominated = "dominated"
	// StatusExcluded marks a statically pruned configuration; Reason
	// explains why it could never run.
	StatusExcluded = "excluded"
)

// Candidate is one configuration's full sweep record.
type Candidate struct {
	Config Config
	// Status is one of the Status* constants.
	Status string
	// Reason is the exclusion reason (StatusExcluded) or the label of
	// a dominating configuration (StatusDominated); empty on the
	// frontier.
	Reason string
	// Advisories holds the static payload-cap lint findings for this
	// style — advisory, never a prune: the paper deliberately
	// measures what happens at the caps.
	Advisories []string
	// DeltaOf names the canonical representative of this candidate's
	// evaluation signature when it is not the candidate itself: the
	// two configurations are provably indistinguishable (the provider
	// does not bill the differing tier, or the lowering ignores the
	// differing shape), so the sweep measures the representative once
	// and this candidate resolves from the memo. Static annotation:
	// identical in shared and cold modes.
	DeltaOf string
	// sig is the evaluation-signature key (internal).
	sig string

	// Lat is the measured end-to-end p50; Cost the mean per-run bill.
	// Zero on excluded candidates.
	Lat  time.Duration
	Cost float64
	// Series is the underlying campaign measurement (shared with the
	// representative for delta-resolved candidates).
	Series *core.Series
}

// Result is one workload family's sweep outcome.
type Result struct {
	Workload string
	// Candidates holds every enumerated configuration in canonical
	// order — frontier, dominated, and excluded alike.
	Candidates []Candidate
	// Evals counts the measurement campaigns actually simulated;
	// len(measured candidates) - Evals resolved from the delta memo.
	Evals int
	// Payload is the merged per-campaign payload-cache activity of
	// the sweep's evaluations (first-touch attribution per campaign,
	// summed with Stats.Merge — deterministic at any worker count).
	Payload payload.Stats
}

// Options tunes a sweep.
type Options struct {
	// Iters is the per-candidate measured iteration count.
	Iters int
	// Gap is the virtual time between iterations (0 = 30s).
	Gap time.Duration
	// Warmup runs unmeasured warmup iterations per campaign.
	Warmup int
	// Seed is the campaign seed; every candidate's environment derives
	// from it alone, so results are byte-identical across runs.
	Seed uint64
	// Workers bounds candidate-evaluation concurrency (0 = GOMAXPROCS,
	// 1 = one candidate at a time). Never changes results.
	Workers int
	// Engine is the sweep-shared payload engine; nil creates a fresh
	// one per Sweep call. Passing a long-lived engine makes repeated
	// sweeps (the serve-mode what-if path) resolve from the memo.
	Engine *payload.Engine
	// Cold evaluates every candidate with a private fresh payload
	// engine and no signature memo — the pre-sweep-engine baseline
	// the benchmarks compare against. The emitted candidates are
	// byte-identical to the shared mode; only the work differs.
	Cold bool
	// Metrics, when non-nil, enables span tracing inside every
	// campaign and aggregates counters into the registry.
	Metrics *metrics.Registry
}

// flowDefiner is the static-inspection seam every IR-defined workload
// exposes (the graph subcommand uses the same one).
type flowDefiner interface {
	FlowDef() (*flow.Definition, error)
}

// Enumerate yields the space's candidate set in canonical order with
// static pruning and signature analysis applied, but nothing measured:
// excluded candidates carry their reasons, measurable ones their
// delta-evaluation representatives. Sweep calls this first; it is
// exported so tests and planning tools can inspect a space without
// paying for simulation.
func Enumerate(space Space) []Candidate {
	impls := space.Impls
	if impls == nil {
		impls = core.RegisteredImpls()
	}
	var cands []Candidate
	for _, impl := range impls {
		for _, mem := range dim(space.MemTiersMB) {
			for _, fan := range dim(space.FanOuts) {
				for _, chunk := range dim(space.Chunks) {
					cands = append(cands, Candidate{Config: Config{
						Workload: space.Workload,
						Impl:     impl,
						MemMB:    mem,
						FanOut:   fan,
						Chunk:    chunk,
					}})
				}
			}
		}
	}
	sort.SliceStable(cands, func(a, b int) bool { return cands[a].Config.less(cands[b].Config) })

	// Static pruning: one IR definition per distinct shape is enough
	// for every style's support gate and lint.
	type shapeKey struct{ mem, fan, chunk int }
	defs := map[shapeKey]*flow.Definition{}
	defFor := func(c Config) *flow.Definition {
		k := shapeKey{c.MemMB, c.FanOut, c.Chunk}
		if d, ok := defs[k]; ok {
			return d
		}
		var d *flow.Definition
		if fd, ok := space.Build(c).(flowDefiner); ok {
			d, _ = fd.FlowDef()
		}
		defs[k] = d
		return d
	}

	seen := map[string]string{} // signature -> representative label
	for i := range cands {
		c := &cands[i]
		if c.Config.FanOut > flow.MaxFanOut {
			c.Status = StatusExcluded
			c.Reason = fmt.Sprintf("fan-out %d exceeds the IR fan-out limit %d", c.Config.FanOut, flow.MaxFanOut)
			continue
		}
		def := defFor(c.Config)
		if def == nil {
			// Non-IR workload: fall back to the core support check.
			if !core.SupportsImpl(space.Build(c.Config), c.Config.Impl) {
				c.Status = StatusExcluded
				c.Reason = "style not supported by the workload"
			}
		} else if reason := flow.ExcludeReason(def, c.Config.Impl); reason != "" {
			c.Status = StatusExcluded
			c.Reason = reason
		} else {
			for _, f := range flow.LintPayloads(def) {
				if f.Impl == c.Config.Impl {
					c.Advisories = append(c.Advisories, f.String())
				}
			}
		}
		if c.Status == StatusExcluded {
			continue
		}
		c.sig = signature(space, c.Config)
		if rep, ok := seen[c.sig]; ok {
			c.DeltaOf = rep
		} else {
			seen[c.sig] = c.Config.Label()
		}
	}
	return cands
}

// signature canonicalizes a configuration for delta evaluation: two
// configurations with equal signatures are indistinguishable to the
// simulator and the billing model, so the sweep measures one. The
// collapses are registry-derived: a provider that bills consumed
// rather than configured memory (ProviderSpec.BillsConfiguredMem
// false) makes the memory tier irrelevant — in this codebase such
// providers' lowerings ignore the tier entirely — and a style whose
// graph class is declared shape-irrelevant ignores fan-out/chunking.
func signature(space Space, c Config) string {
	mem, fan, chunk := c.MemMB, c.FanOut, c.Chunk
	if info, ok := core.StyleOf(c.Impl); ok {
		if spec, ok := core.Provider(info.Kind); ok && !spec.BillsConfiguredMem {
			mem = 0
		}
	}
	if l, ok := flow.LowererFor(c.Impl); ok {
		for _, cl := range space.ShapeIrrelevantClasses {
			if l.Class() == cl {
				fan, chunk = 0, 0
				break
			}
		}
	}
	return fmt.Sprintf("%s|%s|mem%d|fan%d|chunk%d", c.Workload, c.Impl, mem, fan, chunk)
}

// Sweep enumerates, prunes, evaluates, and classifies one workload
// family's configuration space. The returned candidates are in
// canonical order and byte-stable: identical at any Options.Workers,
// under any Space declaration order, and between shared and cold
// evaluation modes.
func Sweep(space Space, o Options) (*Result, error) {
	if o.Iters <= 0 {
		o.Iters = 10
	}
	if o.Gap <= 0 {
		o.Gap = 30 * time.Second
	}
	eng := o.Engine
	if eng == nil && !o.Cold {
		eng = payload.NewEngine()
	}
	memo := NewMemo(eng)

	cands := Enumerate(space)
	err := parallel.ForEach(o.Workers, len(cands), func(i int) error {
		c := &cands[i]
		if c.Status == StatusExcluded {
			return nil
		}
		mo := core.MeasureOptions{
			Iters:   o.Iters,
			Gap:     o.Gap,
			Warmup:  o.Warmup,
			Seed:    o.Seed,
			Metrics: o.Metrics,
		}
		if o.Metrics != nil {
			mo.Tracing = true
		}
		var s *core.Series
		var err error
		if o.Cold {
			// Baseline mode: a private engine per candidate, no memo —
			// every campaign replays all of its compute.
			mo.PayloadCache = payload.NewEngine()
			s, err = core.Measure(space.Build(c.Config), c.Config.Impl, mo)
		} else {
			mo.PayloadCache = eng
			s, err = memo.Series(c.sig, func() (*core.Series, error) {
				return core.Measure(space.Build(c.Config), c.Config.Impl, mo)
			})
		}
		if err != nil {
			return fmt.Errorf("optimizer: %s/%s: %w", c.Config.Workload, c.Config.Label(), err)
		}
		c.Series = s
		c.Lat = s.E2E.Median()
		c.Cost = s.MeanBill.Total()
		return nil
	})
	if err != nil {
		return nil, err
	}

	Classify(cands)

	r := &Result{Workload: space.Workload, Candidates: cands}
	seenSig := map[string]bool{}
	for i := range cands {
		c := &cands[i]
		if c.Status == StatusExcluded {
			continue
		}
		if !seenSig[c.sig] {
			seenSig[c.sig] = true
			r.Evals++
			// In cold mode every candidate ran its own campaign; count
			// and merge them all so the two modes report their true
			// work honestly.
		}
		if o.Cold || c.DeltaOf == "" {
			r.Payload = r.Payload.Merge(c.Series.Payload)
		}
	}
	if o.Cold {
		r.Evals = 0
		for i := range cands {
			if cands[i].Status != StatusExcluded {
				r.Evals++
			}
		}
	}
	return r, nil
}

// Classify computes Pareto domination over the measured candidates in
// place: a candidate is dominated when another measured candidate is
// no worse on both axes and strictly better on at least one; ties on
// both axes (delta-equivalent configurations) dominate nobody and
// share the frontier. Reason names the first dominating candidate in
// canonical order. Exported so invariance tests can re-classify
// merged candidate sets from sharded sweeps.
func Classify(cands []Candidate) {
	for i := range cands {
		c := &cands[i]
		if c.Status == StatusExcluded {
			continue
		}
		c.Status = StatusFrontier
		c.Reason = ""
		for j := range cands {
			d := &cands[j]
			if j == i || d.Status == StatusExcluded {
				continue
			}
			if d.Lat <= c.Lat && d.Cost <= c.Cost && (d.Lat < c.Lat || d.Cost < c.Cost) {
				c.Status = StatusDominated
				c.Reason = "dominated by " + d.Config.Label()
				break
			}
		}
	}
}

// Frontier returns the measured non-dominated candidates ordered by
// (latency, cost, canonical order).
func (r *Result) Frontier() []*Candidate {
	var out []*Candidate
	for i := range r.Candidates {
		if r.Candidates[i].Status == StatusFrontier {
			out = append(out, &r.Candidates[i])
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Lat != out[b].Lat {
			return out[a].Lat < out[b].Lat
		}
		if out[a].Cost != out[b].Cost {
			return out[a].Cost < out[b].Cost
		}
		return out[a].Config.less(out[b].Config)
	})
	return out
}

// CheapestUnder returns the cheapest measured candidate whose p50
// latency meets the SLO, or nil when none does. Ties break toward
// lower latency, then canonical order.
func (r *Result) CheapestUnder(slo time.Duration) *Candidate {
	var best *Candidate
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if c.Status == StatusExcluded || c.Lat > slo {
			continue
		}
		if best == nil || c.Cost < best.Cost ||
			(c.Cost == best.Cost && (c.Lat < best.Lat || (c.Lat == best.Lat && c.Config.less(best.Config)))) {
			best = c
		}
	}
	return best
}

// FastestUnder returns the fastest measured candidate whose mean
// per-run cost fits the budget, or nil when none does. Ties break
// toward lower cost, then canonical order.
func (r *Result) FastestUnder(budget float64) *Candidate {
	var best *Candidate
	for i := range r.Candidates {
		c := &r.Candidates[i]
		if c.Status == StatusExcluded || c.Cost > budget {
			continue
		}
		if best == nil || c.Lat < best.Lat ||
			(c.Lat == best.Lat && (c.Cost < best.Cost || (c.Cost == best.Cost && c.Config.less(best.Config)))) {
			best = c
		}
	}
	return best
}
