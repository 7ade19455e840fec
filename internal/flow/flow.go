// Package flow is the provider-neutral workflow intermediate
// representation. A workload describes its orchestration once — a typed
// DAG of task, map/fan-out, parallel, choice, wait, and sub-workflow
// nodes, each task naming a payload-cacheable compute stage plus
// declared input/output payload estimates — and one compiler per
// backend (internal/aws/awsflow, internal/azure/azureflow,
// internal/gcp/gcpflow, internal/azure/netherite/nethflow) lowers the
// same definition to its vendor's orchestration format: SFN
// Amazon-States-Language machines, Azure storage-queue chains, Durable
// orchestrator code on either task-hub store, or GCP Workflows
// programs.
//
// The IR deliberately separates structure from calibration: the DAG,
// resource names, and memory tiers are declarative, while the simulated
// work inside each task is a workload-owned stage closure bound per
// deployment (Definition.Bind). That is what lets one definition
// reproduce byte-identical output with the per-provider code it
// replaced — every irregularity the paper measured (per-provider cost
// scopes, speeds, span layouts) lives in the workload's stage
// functions, and everything structural is compiled.
package flow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"time"

	"statebench/internal/cloud/blob"
	"statebench/internal/core"
	"statebench/internal/sim"
)

// Class names a lowering family. A definition carries one graph per
// class it supports; each registered Lowerer consumes exactly one
// class.
type Class string

const (
	// Mono is the single-function monolith (AWS-Lambda, Az-Func,
	// GCP-Func).
	Mono Class = "mono"
	// Machine is the managed state-machine family (AWS-Step's ASL
	// machine, GCP-Wflow's Workflows program).
	Machine Class = "machine"
	// Queue is the hand-rolled storage-queue chain (Az-Queue).
	Queue Class = "queue"
	// DurableOrch is the Durable-orchestrator style (Az-Dorch and its
	// Netherite variant).
	DurableOrch Class = "dorch"
	// DurableEnt is the Durable-entities style (Az-Dent and its
	// Netherite variant).
	DurableEnt Class = "dent"
)

// Kind is a node's structural type.
type Kind int

const (
	// KindTask is a single unit of work: a platform function, a durable
	// activity, an entity operation (Entity != ""), or an inline pure
	// transform (Pure).
	KindTask Kind = iota
	// KindMap fans one input out over a dynamic or static item list and
	// joins the results (SFN Map state, Durable WaitAll, GCP parallel).
	KindMap
	// KindParallel runs a fixed set of heterogeneous branches
	// concurrently and joins the results.
	KindParallel
	// KindChoice branches on the current payload.
	KindChoice
	// KindWait pauses the workflow for a fixed duration.
	KindWait
	// KindSub invokes a sub-workflow (Durable sub-orchestrator).
	KindSub
)

// String implements fmt.Stringer for diagnostics and DOT output.
func (k Kind) String() string {
	switch k {
	case KindTask:
		return "task"
	case KindMap:
		return "map"
	case KindParallel:
		return "parallel"
	case KindChoice:
		return "choice"
	case KindWait:
		return "wait"
	case KindSub:
		return "sub"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// InputMode selects what a node receives as its input payload.
type InputMode int

const (
	// InputPrev (the default) feeds the previous node's output.
	InputPrev InputMode = iota
	// InputEntry feeds the workflow's entry payload.
	InputEntry
	// InputNone feeds nil.
	InputNone
)

// JoinMode selects how a fan-out node's branch outputs are combined
// into the node's output payload.
type JoinMode int

const (
	// JoinArray emits the raw branch outputs as a JSON array, in branch
	// order.
	JoinArray JoinMode = iota
	// JoinEnvelope wraps the array in a one-field object named by the
	// node's ResultField (SFN's ResultPath convention).
	JoinEnvelope
	// JoinDiscard drops the branch outputs; the current payload passes
	// through unchanged.
	JoinDiscard
)

// ChoiceCase is one declarative branch condition of a KindChoice node.
// Conditions are a small JSONPath-style subset that lowers directly to
// ASL choice rules and evaluates inline on every other backend.
type ChoiceCase struct {
	// Var is the top-level payload field the condition reads
	// ("$.field" or "field"); a case whose field is absent does not
	// hold.
	Var string
	// Exactly one comparison must be set.
	NumLT  *float64
	NumGTE *float64
	StrEq  *string
	// To is the node executed when the condition holds.
	To string
}

// Node is one vertex of a workflow graph.
type Node struct {
	// Name is the node's unique display/state name within its graph.
	Name string
	Kind Kind
	// Next names the successor node; "" ends the workflow.
	Next string
	// Input selects this node's input payload (tasks, maps, subs).
	Input InputMode

	// Task fields.
	//
	// Fn is the platform resource name (Lambda/function/activity);
	// Stage names the bound compute closure; MemMB is the provisioned
	// memory tier (0 = the lowering provider's default);
	// ConsumedMemMB/CodeSizeMB feed the platform's billing and
	// cold-start models.
	Fn            string
	Stage         string
	MemMB         int
	ConsumedMemMB int
	CodeSizeMB    float64
	// Entity/EntityKey/Op make the task a durable entity call.
	Entity    string
	EntityKey string
	// Op is the entity operation invoked.
	Op string
	// Pure marks an inline transform executed in the orchestrator with
	// no platform resource (and therefore no simulated time): the
	// stage must not touch its Act.
	Pure bool
	// QueueName is the storage queue feeding this node in a queue-chain
	// graph ("" = the HTTP-triggered head).
	QueueName string

	// Declared payload estimates for the static lint (bytes on the
	// node's input and output edges) and the declared execution
	// estimate (seconds at the definition's reference speed) for
	// provider execution-limit gating.
	InEst      int
	OutEst     int
	EstSeconds float64

	// Map fields. Items come from exactly one of: Fan (a bound fan
	// closure producing the item payloads), ItemsField (a JSON array
	// field of the node's input, SFN's ItemsPath), or — when both are
	// empty — the node's input itself parsed as a JSON array.
	Fan        string
	ItemsField string
	// ResultField names the envelope field for JoinEnvelope (SFN's
	// ResultPath).
	ResultField string
	// MaxConcurrency bounds the platform's fan-out parallelism
	// (0 = unbounded).
	MaxConcurrency int
	// Serial runs the fan-out's branches one at a time (a foreach).
	Serial bool
	Join   JoinMode
	// Iter describes the iterated work: a task-shaped node applied to
	// each item (its Next is ignored). For KindParallel, Branches
	// holds one task-shaped node per branch instead.
	Iter     *Node
	Branches []*Node

	// IterName is the state name of the Map iterator (SFN).
	IterName string

	// Choice fields.
	Cases   []ChoiceCase
	Default string

	// Wait fields.
	WaitSeconds float64

	// Sub fields.
	SubGraph *Graph
}

// EntityDecl declares a durable entity a graph owns: its operations
// map to bound stages, with an optional built-in state-read op and
// optional preloaded durable state.
type EntityDecl struct {
	Name          string
	ConsumedMemMB int
	// Ops maps operation names to stage names.
	Ops map[string]string
	// GetOp, when non-empty, names a built-in op returning the entity's
	// raw state.
	GetOp string
	// GetErr, when non-empty, is returned as an error from GetOp while
	// the entity has no state yet.
	GetErr string
	// PreloadKey/PreloadState seed the entity's durable state at
	// deploy time (classic task-hub store only).
	PreloadKey   string
	PreloadState []byte
}

// Preload stages one blob object at deploy time. The store aliases
// Data instead of copying it (see ApplyPreloads).
type Preload struct {
	Key  string
	Data []byte
}

// Graph is one lowering class's DAG plus its class-specific metadata.
type Graph struct {
	Class Class
	// Variants lists the allowed lowerer variants (nil = [""], the
	// classic backend only). The Durable graphs of a workload that
	// should also deploy on Netherite hubs list "" and "n".
	Variants []string
	// Start names the entry node.
	Start string
	// Nodes holds the graph's vertices in registration order: lowerers
	// register platform resources in exactly this order.
	Nodes []*Node
	// MachineName names the compiled artifact (state machine,
	// orchestrator, or workflow program). Empty = the definition name.
	MachineName string
	// MachineNameByProvider overrides MachineName per provider name
	// (the paper's GCP video program is named "video-processing" while
	// the SFN machine is "video-<N>w").
	MachineNameByProvider map[string]string
	// Comment annotates the compiled machine (ASL Comment field).
	Comment string
	// RetryAttempts > 0 attaches an ASL States.ALL retry policy with
	// that attempt budget to every task state of a Machine lowering.
	RetryAttempts int
	// OrchConsumedMemMB is the orchestrator function's consumed memory
	// (Durable lowerings).
	OrchConsumedMemMB int
	// FuncCount/CodeSizeMB are the deployment's Table II metadata.
	FuncCount  int
	CodeSizeMB float64
	// CodeSizeMBByProvider overrides CodeSizeMB per provider name
	// (e.g. the monolith ships 63.1 MB on AWS but 304 MB on Azure).
	CodeSizeMBByProvider map[string]float64
	// Entities declares the graph's durable entities in registration
	// order.
	Entities []EntityDecl
	// Preloads stages blob objects before registration.
	Preloads []Preload
}

// Node returns the named node, or nil.
func (g *Graph) Node(name string) *Node {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// Nodes lists every node of g in registration order: each top-level
// node followed by its map iterator or parallel branches, with a
// sub-graph's nodes (recursively) before the sub node that calls them,
// so a lowerer installs a sub-workflow's tasks before the sub-workflow.
func Nodes(g *Graph) []*Node {
	var out []*Node
	var add func(n *Node)
	add = func(n *Node) {
		if n.SubGraph != nil {
			for _, sn := range n.SubGraph.Nodes {
				add(sn)
			}
		}
		out = append(out, n)
		if n.Iter != nil {
			add(n.Iter)
		}
		for _, b := range n.Branches {
			add(b)
		}
	}
	for _, n := range g.Nodes {
		add(n)
	}
	return out
}

// DeployCodeSizeMB resolves the deployment package size for a provider.
func (g *Graph) DeployCodeSizeMB(provider string) float64 {
	if v, ok := g.CodeSizeMBByProvider[provider]; ok {
		return v
	}
	return g.CodeSizeMB
}

// Act is the execution context a stage runs under: the simulated
// process plus the platform's busy-loop accounting. Every provider's
// function context satisfies it structurally.
type Act interface {
	Proc() *sim.Proc
	Busy(d time.Duration)
}

// StateAct extends Act with durable entity state access; entity-op
// stages type-assert their Act to it.
type StateAct interface {
	Act
	State() []byte
	SetState([]byte)
	HasState() bool
}

// StageFn is one bound compute stage. Its input and output are the
// payloads on the node's edges; all simulated work goes through the
// Act.
type StageFn func(a Act, input []byte) ([]byte, error)

// FanFn produces a fan-out's item payloads from the map node's input.
type FanFn func(input []byte) ([][]byte, error)

// Stages is the set of closures a definition binds for one deployment.
type Stages struct {
	Tasks map[string]StageFn
	Fans  map[string]FanFn

	// items is Items' memo, per map node.
	items map[*Node]itemsMemo
}

// itemsMemo is one map node's last input, a private copy, and the
// items resolved from it.
type itemsMemo struct {
	input []byte
	items [][]byte
}

// Task resolves a stage name.
func (s *Stages) Task(name string) (StageFn, error) {
	if fn, ok := s.Tasks[name]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("flow: unbound stage %q", name)
}

// Fan resolves a fan name.
func (s *Stages) Fan(name string) (FanFn, error) {
	if fn, ok := s.Fans[name]; ok {
		return fn, nil
	}
	return nil, fmt.Errorf("flow: unbound fan %q", name)
}

// Binding tells a definition which deployment its stages are being
// bound for.
type Binding struct {
	Env *core.Env
	// Blob is the lowering provider's object store (S3, Azure Blob,
	// GCS, or the Netherite hub's store).
	Blob *blob.Store
	// Provider is the registered provider's display name ("AWS",
	// "Azure", "GCP", "Netherite").
	Provider string
	Class    Class
	// Variant is the lowerer variant ("" classic, "n" Netherite).
	Variant string
}

// RunState carries per-run bookkeeping a runner shares with its
// stages: the current run's start time and per-branch finish times
// (Table III's per-worker metric).
type RunState struct {
	CurStart sim.Time
	Finishes []time.Duration
}

// RecordFinish appends now-relative-to-run-start to Finishes.
func (r *RunState) RecordFinish(now sim.Time) {
	r.Finishes = append(r.Finishes, now-r.CurStart)
}

// runStateCarrier is implemented by lowerer contexts that expose a
// RunState to stages.
type runStateCarrier interface{ FlowRunState() *RunState }

// RunStateOf returns the deployment's RunState when the lowering
// exposes one (Durable activities), and nil otherwise — so a stage can
// record per-branch metrics only on the styles that surface them.
func RunStateOf(a Act) *RunState {
	if c, ok := a.(runStateCarrier); ok {
		return c.FlowRunState()
	}
	return nil
}

// Definition is one workload's provider-neutral description.
type Definition struct {
	// Name is the workflow name (core.Workflow.Name).
	Name string
	// ErrPrefix namespaces runtime error messages ("mltrain").
	ErrPrefix string
	// Graphs holds one DAG per supported lowering class.
	Graphs map[Class]*Graph
	// Bind builds the deployment's stage closures.
	Bind func(b Binding) (*Stages, error)
	// Entry produces the first payload for lowerings that drive the
	// workflow with raw bytes (queue chains, durable orchestrations,
	// Workflows programs).
	Entry func(class Class, run int64) []byte
	// EntryMap produces the execution input for lowerings that drive
	// the workflow with a JSON document (SFN, GCP Workflows
	// executions).
	EntryMap func(run int64) map[string]any
	// Finish converts the terminal payload of a GCP Workflows program
	// into the execution output. Nil = parse the payload as a JSON
	// object.
	Finish func(last []byte) (map[string]any, error)
	// RunOf extracts the run id from a payload (queue-chain run
	// tracking). Nil = parse a {"run": N} field.
	RunOf func(payload []byte) int64
	// FinishScratchKey, when non-empty, exposes the durable
	// deployment's RunState.Finishes in Env.Scratch under this key.
	FinishScratchKey string
	// Speeds maps provider names to the workload's calibrated relative
	// speed (reference 1.0); used to gate provider execution limits
	// against node EstSeconds. Missing entries default to 1.0.
	Speeds map[string]float64
}

// SpeedFor returns the calibrated speed for a provider name.
func (d *Definition) SpeedFor(provider string) float64 {
	if v, ok := d.Speeds[provider]; ok && v > 0 {
		return v
	}
	return 1.0
}

// RunIDOf applies RunOf or its default.
func (d *Definition) RunIDOf(payload []byte) int64 {
	if d.RunOf != nil {
		return d.RunOf(payload)
	}
	var m struct {
		Run int64 `json:"run"`
	}
	_ = json.Unmarshal(payload, &m)
	return m.Run
}

// MachineNameFor resolves a graph's artifact name for a provider.
func (d *Definition) MachineNameFor(g *Graph, provider string) string {
	if v, ok := g.MachineNameByProvider[provider]; ok {
		return v
	}
	if g.MachineName != "" {
		return g.MachineName
	}
	return d.Name
}

// OverrideMemMB sets the provisioned memory tier of every platform
// task node in every graph of the definition — the single knob the
// cost/latency optimizer sweeps. memMB <= 0 leaves the definition
// untouched (each node keeps its declared tier or the lowering
// provider's default). Pure transforms and entity operations run in
// the orchestrator or the entity host, not in their own provisioned
// function, so they are skipped; whether the tier actually shapes the
// bill is the provider's ProviderSpec.BillsConfiguredMem, not the
// definition's concern.
func OverrideMemMB(d *Definition, memMB int) {
	if memMB <= 0 || d == nil {
		return
	}
	for _, g := range d.Graphs {
		for _, n := range Nodes(g) {
			if n.Kind == KindTask && n.Fn != "" && !n.Pure && n.Entity == "" {
				n.MemMB = memMB
			}
		}
	}
}

// InputFor resolves a node's input payload from the current and entry
// payloads.
func InputFor(n *Node, cur, entry []byte) []byte {
	switch n.Input {
	case InputEntry:
		return entry
	case InputNone:
		return nil
	}
	return cur
}

// Items resolves a map node's fan-out item payloads: a bound fan
// closure, a JSON array field of the input, or the input itself as a
// JSON array. Raw item bytes are preserved exactly.
//
// Items remembers each node's last input and its items on st, so a
// Durable orchestrator that replays the node on every episode resolves
// them once. The items are built from a private copy of the input, so
// a caller that rewrites its buffer never meets a stale hit; each item
// and the list are clipped, so an append copies. Callers share the
// items and must not modify their bytes. A deployment's stages run one
// process at a time, so the memo needs no lock.
func Items(n *Node, st *Stages, input []byte) ([][]byte, error) {
	if memo, ok := st.items[n]; ok && bytes.Equal(memo.input, input) {
		return memo.items, nil
	}
	in := bytes.Clone(input)
	items, err := resolveItems(n, st, in)
	if err != nil {
		return nil, err
	}
	for i := range items {
		items[i] = slices.Clip(items[i])
	}
	items = slices.Clip(items)
	if st.items == nil {
		st.items = make(map[*Node]itemsMemo)
	}
	st.items[n] = itemsMemo{input: in, items: items}
	return items, nil
}

// resolveItems is Items without the memo.
func resolveItems(n *Node, st *Stages, input []byte) ([][]byte, error) {
	if n.Fan != "" {
		fan, err := st.Fan(n.Fan)
		if err != nil {
			return nil, err
		}
		return fan(input)
	}
	raw := json.RawMessage(input)
	if n.ItemsField != "" {
		var env map[string]json.RawMessage
		if err := json.Unmarshal(input, &env); err != nil {
			return nil, fmt.Errorf("flow: %s: items envelope: %w", n.Name, err)
		}
		field, ok := env[n.ItemsField]
		if !ok {
			return nil, fmt.Errorf("flow: %s: input has no %q field", n.Name, n.ItemsField)
		}
		raw = field
	}
	var items []json.RawMessage
	if err := json.Unmarshal(raw, &items); err != nil {
		return nil, fmt.Errorf("flow: %s: items: %w", n.Name, err)
	}
	out := make([][]byte, len(items))
	for i, it := range items {
		out[i] = []byte(it)
	}
	return out, nil
}

// JoinOutputs combines branch outputs per the node's JoinMode. Raw
// branch bytes are embedded verbatim, so the result is byte-identical
// to marshalling the parsed structs (JSON re-marshal of these payloads
// is stable).
func JoinOutputs(n *Node, outs [][]byte, cur []byte) ([]byte, error) {
	switch n.Join {
	case JoinDiscard:
		return cur, nil
	case JoinEnvelope:
		raws := make([]json.RawMessage, len(outs))
		for i, o := range outs {
			raws[i] = json.RawMessage(o)
		}
		return json.Marshal(map[string]any{n.ResultField: raws})
	}
	raws := make([]json.RawMessage, len(outs))
	for i, o := range outs {
		raws[i] = json.RawMessage(o)
	}
	return json.Marshal(raws)
}

// ChoiceField returns the top-level payload field a choice case's Var
// names: Var without its optional "$." prefix.
func ChoiceField(v string) string { return strings.TrimPrefix(v, "$.") }

// EvalChoice returns the name of the node a choice's payload selects:
// the first case whose field is present and satisfies its comparison,
// else the default.
func EvalChoice(n *Node, payload []byte) (string, error) {
	var doc map[string]any
	if err := json.Unmarshal(payload, &doc); err != nil {
		return "", fmt.Errorf("flow: %s: choice payload: %w", n.Name, err)
	}
	for _, c := range n.Cases {
		v, ok := doc[ChoiceField(c.Var)]
		if !ok {
			continue
		}
		switch {
		case c.NumLT != nil:
			if f, ok := v.(float64); ok && f < *c.NumLT {
				return c.To, nil
			}
		case c.NumGTE != nil:
			if f, ok := v.(float64); ok && f >= *c.NumGTE {
				return c.To, nil
			}
		case c.StrEq != nil:
			if s, ok := v.(string); ok && s == *c.StrEq {
				return c.To, nil
			}
		}
	}
	if n.Default == "" {
		return "", fmt.Errorf("flow: %s: no choice case matched and no default", n.Name)
	}
	return n.Default, nil
}

// ApplyPreloads stages a graph's blob objects by alias
// (blob.PreloadShared): a Get of a preloaded key returns Data itself.
// Preloaded bytes must therefore be immutable for the life of the
// deployment, as memoized payloads and zero-arena placeholders are,
// and no stage may modify what such a Get returns.
func ApplyPreloads(store *blob.Store, g *Graph) {
	for _, p := range g.Preloads {
		store.PreloadShared(p.Key, p.Data)
	}
}
