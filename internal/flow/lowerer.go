package flow

import (
	"fmt"

	"statebench/internal/core"
)

// Caps are the provider limits a lowerer enforces: the orchestration
// payload cap the paper measures (256 KB on SFN, 64 KB on Durable and
// storage queues) and the platform's function execution ceiling.
type Caps struct {
	// PayloadBytes is the maximum inter-state payload (0 = unlimited,
	// e.g. blob-passing monoliths).
	PayloadBytes int
	// MaxTaskSeconds is the function execution time limit in seconds
	// (0 = unlimited). Checked against node EstSeconds scaled by the
	// definition's provider speed.
	MaxTaskSeconds float64
}

// Lowerer compiles one class of IR graph to one implementation style.
// Each lives in its provider's package and self-registers from init,
// discovered the same way core.ProviderSpec styles are: the flow layer
// never imports a provider.
type Lowerer interface {
	// Impl is the implementation style this lowerer produces.
	Impl() core.Impl
	// Class is the graph class it consumes.
	Class() Class
	// Variant distinguishes backend variants of one class ("" classic,
	// "n" Netherite); a graph opts into variants via Graph.Variants.
	Variant() string
	// Caps reports the provider limits the lowering is subject to.
	Caps() Caps
	// Lower compiles the definition's graph for this class into a
	// deployed workflow on env.
	Lower(env *core.Env, def *Definition) (*core.Deployment, error)
	// Program renders the compiled orchestration artifact as text (ASL
	// JSON, a Workflows program, a registration plan) without an Env.
	// It must be deterministic: same definition, same bytes.
	Program(def *Definition) (string, error)
}

var (
	lowererRegistry = map[core.Impl]Lowerer{}
	lowererOrder    []core.Impl
)

// RegisterLowerer adds a lowerer to the registry; called from provider
// package inits, so a duplicate is a programming error.
func RegisterLowerer(l Lowerer) {
	impl := l.Impl()
	if _, dup := lowererRegistry[impl]; dup {
		panic(fmt.Sprintf("flow: lowerer for %s registered twice", impl))
	}
	lowererRegistry[impl] = l
	lowererOrder = append(lowererOrder, impl)
}

// LowererFor returns the registered lowerer for a style.
func LowererFor(impl core.Impl) (Lowerer, bool) {
	l, ok := lowererRegistry[impl]
	return l, ok
}

// variantAllowed reports whether a graph opts into a lowerer variant.
func variantAllowed(g *Graph, variant string) bool {
	if g.Variants == nil {
		return variant == ""
	}
	for _, v := range g.Variants {
		if v == variant {
			return true
		}
	}
	return false
}

// graphFor resolves the definition graph a lowerer would consume, or
// nil when the definition does not support the style.
func graphFor(def *Definition, l Lowerer) *Graph {
	g, ok := def.Graphs[l.Class()]
	if !ok || !variantAllowed(g, l.Variant()) {
		return nil
	}
	return g
}

// Supports reports whether a definition can lower to a style: a
// lowerer is registered, the definition carries a graph of its class
// that allows its variant, and every node's declared execution
// estimate fits the provider's execution ceiling at the workload's
// calibrated speed. (The payload lint, by contrast, only warns — the
// paper deliberately measures what happens at the caps.)
func Supports(def *Definition, impl core.Impl) bool {
	l, ok := lowererRegistry[impl]
	if !ok {
		return false
	}
	g := graphFor(def, l)
	if g == nil {
		return false
	}
	caps := l.Caps()
	if caps.MaxTaskSeconds <= 0 {
		return true
	}
	info, ok := core.StyleOf(impl)
	if !ok {
		return false
	}
	speed := 1.0
	if spec, ok := core.Provider(info.Kind); ok {
		speed = def.SpeedFor(spec.Name)
	}
	for _, n := range Nodes(g) {
		if n.EstSeconds > 0 && n.EstSeconds/speed > caps.MaxTaskSeconds {
			return false
		}
	}
	return true
}

// ExcludeReason explains why Supports(def, impl) said no, in the
// wording the graph-command summary pins: missing graph class, a
// variant the graph does not opt into, or an execution-estimate
// ceiling at the workload's calibrated provider speed. Returns "" when
// the style is in fact supported, so callers (the optimizer's
// dominated-set CSV, the graph summary) can never silently skip a
// config: a skip either carries a reason or did not happen.
func ExcludeReason(def *Definition, impl core.Impl) string {
	l, ok := lowererRegistry[impl]
	if !ok {
		return "no lowerer registered"
	}
	if Supports(def, impl) {
		return ""
	}
	g, ok := def.Graphs[l.Class()]
	if !ok {
		return fmt.Sprintf("no %s graph", l.Class())
	}
	if !variantAllowed(g, l.Variant()) {
		return fmt.Sprintf("graph does not opt into variant %q", l.Variant())
	}
	speed := def.SpeedFor(ProviderNameOf(impl))
	return fmt.Sprintf("an execution estimate exceeds %gs at speed %.2f", l.Caps().MaxTaskSeconds, speed)
}

// Deploy lowers a definition to one style, dispatching through the
// lowerer registry. It is the single Deploy body every IR-defined
// workload shares.
func Deploy(env *core.Env, def *Definition, impl core.Impl) (*core.Deployment, error) {
	l, ok := lowererRegistry[impl]
	if !ok {
		return nil, &core.UnsupportedImplError{Workflow: def.Name, Impl: impl}
	}
	if graphFor(def, l) == nil {
		return nil, &core.UnsupportedImplError{Workflow: def.Name, Impl: impl}
	}
	return l.Lower(env, def)
}

// Extras derives a workload's ExtraImpls: every registered style the
// definition lowers to that is not already in the workload's paper
// list. Provider packages registered after the workload was written
// show up automatically — the IR version of the "zero core edits"
// registry contract.
func Extras(def *Definition, paper []core.Impl) []core.Impl {
	inPaper := make(map[core.Impl]bool, len(paper))
	for _, impl := range paper {
		inPaper[impl] = true
	}
	var out []core.Impl
	for _, impl := range core.RegisteredImpls() {
		if !inPaper[impl] && Supports(def, impl) {
			out = append(out, impl)
		}
	}
	return out
}

// ProviderNameOf resolves a style's registered provider display name.
func ProviderNameOf(impl core.Impl) string {
	if info, ok := core.StyleOf(impl); ok {
		if spec, ok := core.Provider(info.Kind); ok {
			return spec.Name
		}
	}
	return ""
}
