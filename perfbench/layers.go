package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"maps"
	rtmetrics "runtime/metrics"
	"strings"
	"sync"
	"time"

	"statebench/internal/aws"
	"statebench/internal/azure"
	"statebench/internal/azure/netherite"
	"statebench/internal/cloud/queue"
	"statebench/internal/cloud/table"
	"statebench/internal/core"
	"statebench/internal/experiments"
	"statebench/internal/obs/metrics"
	"statebench/internal/obs/span"
	"statebench/internal/obs/tseries"
	"statebench/internal/optimizer"
	"statebench/internal/parallel"
	"statebench/internal/payload"
	"statebench/internal/traffic"
	"statebench/internal/workloads/mlpipe"
	"statebench/internal/workloads/mltrain"
)

// tracing holds the simulator's own telemetry sinks for a traced run;
// a nil *tracing leaves every sink off.
type tracing struct {
	reg *metrics.Registry
	tl  *tseries.Collector
}

func newTracing() *tracing {
	return &tracing{reg: metrics.NewRegistry(), tl: tseries.NewCollector(0)}
}

func (t *tracing) instrument(o *experiments.Options) {
	if t != nil {
		o.Metrics, o.Timeline = t.reg, t.tl
	}
}

func (t *tracing) instrumentTraffic(c *traffic.Config) {
	if t != nil {
		c.Timeline = tseries.New(t.tl.Interval())
	}
}

func (t *tracing) mergeTraffic(c traffic.Config) {
	if t != nil {
		t.tl.Merge(c.Timeline)
	}
}

// spanKinds are the platform span kinds counted as spans.<kind>.
var spanKinds = []span.Kind{
	span.KindRun, span.KindEpisode, span.KindHop, span.KindTransition,
	span.KindInvoke, span.KindExec, span.KindCold, span.KindEntityOp,
	span.KindOrchestration, span.KindStage, span.KindQueue,
}

// spanCounts reads statebench_spans_total per kind: the calls into each
// platform layer.
func (t *tracing) spanCounts() map[string]float64 {
	out := map[string]float64{}
	for _, k := range spanKinds {
		out["spans."+string(k)] = t.reg.CounterValue("statebench_spans_total", metrics.L("kind", string(k)))
	}
	return out
}

// hostSpan is one benchmark-side span around a top-level call, in host
// seconds since the log's first span.
type hostSpan struct {
	Name   string  `json:"name"`
	Parent int     `json:"parent"` // index of the enclosing span; -1 at top level
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
}

// spanLog keeps host spans in memory until the run ends. A span's parent
// is the innermost span open when it started, which is exact for the
// sequential (Workers 1) calls the benchmark times.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []hostSpan
	open  []int
}

type activeSpan struct {
	log   *spanLog
	idx   int
	start time.Time
}

func (l *spanLog) start(name string) activeSpan {
	now := time.Now()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.t0.IsZero() {
		l.t0 = now
	}
	parent := -1
	if n := len(l.open); n > 0 {
		parent = l.open[n-1]
	}
	l.spans = append(l.spans, hostSpan{Name: name, Parent: parent, StartS: now.Sub(l.t0).Seconds()})
	idx := len(l.spans) - 1
	l.open = append(l.open, idx)
	return activeSpan{log: l, idx: idx, start: now}
}

// end closes the span and returns its duration.
func (a activeSpan) end() time.Duration {
	now := time.Now()
	l := a.log
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[a.idx].EndS = now.Sub(l.t0).Seconds()
	for i := len(l.open) - 1; i >= 0; i-- {
		if l.open[i] == a.idx {
			l.open = append(l.open[:i], l.open[i+1:]...)
			break
		}
	}
	return now.Sub(a.start)
}

func (l *spanLog) list() []hostSpan {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]hostSpan(nil), l.spans...)
}

// walls sums span durations by name as "<name>.wall_s".
func (l *spanLog) walls() map[string]float64 {
	out := map[string]float64{}
	for _, s := range l.list() {
		out[s.Name+".wall_s"] += s.EndS - s.StartS
	}
	return out
}

// heapWatch samples live heap bytes until stopped and keeps the peak.
type heapWatch struct {
	quit, done chan struct{}
	peak       uint64
}

func watchHeap(every time.Duration) *heapWatch {
	h := &heapWatch{quit: make(chan struct{}), done: make(chan struct{})}
	sample := []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak in bytes.
func (h *heapWatch) stop() uint64 {
	close(h.quit)
	<-h.done
	return h.peak
}

// censusStyles are the styles whose control-plane work the census
// counts: AWS Step Functions, manual storage queues, and the Durable
// orchestrator/entity styles on the classic and Netherite task hubs.
var censusStyles = []core.Impl{core.AWSStep, core.AzQueue, core.AzDorch, core.AzDent, netherite.Dorch}

// sweepDrillDown is ml-sweep's drill-down: uncached training times and
// each workload family's sweep time.
func sweepDrillDown(seed uint64, workers int, spans *spanLog) (map[string]float64, error) {
	out, err := trainTimes(spans)
	if err != nil {
		return nil, err
	}
	walls, err := familyWalls(seed, workers, spans)
	maps.Copy(out, walls)
	return out, err
}

// familyWalls repeats the quick-scale sweep one family at a time, with
// the options experiments.OptimizeResults passes to optimizer.Sweep and
// one engine shared across families as there, and times each family as
// optimizer.<family>.wall_s. It runs untraced, after the profiled call.
func familyWalls(seed uint64, workers int, spans *spanLog) (map[string]float64, error) {
	o := experiments.QuickOptions()
	eng := payload.NewEngine()
	out := map[string]float64{}
	for _, space := range experiments.OptimizeSpaces() {
		opt := optimizer.Options{Iters: o.Iters, Warmup: 1, Seed: seed, Workers: workers, Engine: eng}
		if space.Workload == "video-processing" {
			opt.Iters = o.VideoIters
		}
		sp := spans.start("optimizer." + space.Workload)
		_, err := optimizer.Sweep(space, opt)
		out["optimizer."+space.Workload+".wall_s"] = sp.end().Seconds()
		if err != nil {
			return nil, fmt.Errorf("optimizer %s: %w", space.Workload, err)
		}
	}
	return out, nil
}

// trainTimes times uncached mlkit training of both dataset sizes.
func trainTimes(spans *spanLog) (map[string]float64, error) {
	out := map[string]float64{}
	for _, size := range []mlpipe.DatasetSize{mlpipe.Small, mlpipe.Large} {
		sp := spans.start("mlkit.train_" + string(size))
		_, err := mlpipe.TrainWith(payload.Disabled(), size)
		out["mlkit.train_"+string(size)+"_s"] = sp.end().Seconds()
		if err != nil {
			return nil, fmt.Errorf("mlkit %s: %w", size, err)
		}
	}
	return out, nil
}

// census measures ML training (small) in each census style with
// core.Measure at its default 100 iterations and KeepEnv, then reads
// the kept environment's kernel, queue, table and task-hub counters.
// Training runs once up front on the census engine, so the campaigns
// time control-plane simulation only. Every count but events_per_s is
// deterministic.
func census(seed uint64, workers int, spans *spanLog) (map[string]float64, error) {
	eng := payload.NewEngine()
	if _, err := mlpipe.TrainWith(eng, mlpipe.Small); err != nil {
		return nil, fmt.Errorf("census: %w", err)
	}
	rows, err := parallel.Map(workers, len(censusStyles), func(i int) (map[string]float64, error) {
		style := censusStyles[i]
		opt := core.DefaultMeasureOptions()
		opt.Seed = seed
		opt.KeepEnv = true
		opt.PayloadCache = eng
		sp := spans.start("census." + string(style))
		s, err := core.Measure(mltrain.New(mlpipe.Small), style, opt)
		wall := sp.end()
		if err != nil {
			return nil, fmt.Errorf("census %s: %w", style, err)
		}
		return styleCensus(s.Env, style, wall), nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, row := range rows {
		maps.Copy(out, row)
	}
	return out, nil
}

// styleCensus reads one kept environment. AWS-Step has no queues or
// tables; its storage_txns are billable state transitions.
func styleCensus(env *core.Env, style core.Impl, wall time.Duration) map[string]float64 {
	var queues []*queue.Queue
	var tables []*table.Table
	var storage int64
	switch be := env.BackendFor(style).(type) {
	case *azure.Cloud:
		queues = append(append(queues, be.ManualQueues...), be.Hub.ControlQueues()...)
		if q := be.Hub.WorkItemQueue(); q != nil {
			queues = append(queues, q)
		}
		for _, t := range []*table.Table{be.Hub.HistoryTable(), be.Hub.InstancesTable()} {
			if t != nil {
				tables = append(tables, t)
			}
		}
		storage = be.Hub.StorageTransactions()
	case *netherite.Cloud:
		storage = be.Hub.StorageTransactions()
	case *aws.Cloud:
		storage = be.SFN.TotalTransitions
	}
	var emptyPolls, dequeues, tableTxns int64
	for _, q := range queues {
		st := q.Stats()
		emptyPolls += st.EmptyPolls
		dequeues += st.Dequeues
	}
	for _, t := range tables {
		tableTxns += t.Stats().Transactions()
	}
	events := env.K.Executed()
	p := "census." + string(style) + "."
	return map[string]float64{
		p + "events":       float64(events),
		p + "empty_polls":  float64(emptyPolls),
		p + "dequeues":     float64(dequeues),
		p + "table_txns":   float64(tableTxns),
		p + "storage_txns": float64(storage),
		p + "events_per_s": float64(events) / wall.Seconds(),
	}
}

// cpuShares decodes a gzipped pprof CPU profile and returns each layer's
// share of sampled CPU time as cpu.<layer>. A sample belongs to the
// layer of its innermost frame, except that standard-library helpers
// (sorting, math, reflection, ...) and runtime frames that are neither
// scheduling nor GC are charged to the first caller that has a layer.
func cpuShares(prof []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	// profile.proto: 2 sample, 4 location, 5 function, 6 string_table.
	var strs []string
	funcName := map[uint64]uint64{}   // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type sample struct {
		locs []uint64 // leaf first
		cpu  int64
	}
	var samples []sample
	err = pbWalk(raw, func(f pbField) error {
		switch f.num {
		case 2: // Sample: 1 location_id, 2 value.
			var s sample
			err := pbWalk(f.b, func(g pbField) error {
				if g.num != 1 && g.num != 2 {
					return nil
				}
				vs, err := pbVarints(g)
				switch {
				case err != nil:
					return err
				case g.num == 1:
					s.locs = append(s.locs, vs...)
				case len(vs) > 0:
					s.cpu = int64(vs[len(vs)-1]) // [samples, cpu ns]
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location: 1 id, 4 line (innermost inlined frame first).
			var id uint64
			var fns []uint64
			err := pbWalk(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 4:
					return pbWalk(g.b, func(h pbField) error {
						if h.num == 1 {
							fns = append(fns, h.v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function: 1 id, 2 name.
			var id, name uint64
			err := pbWalk(f.b, func(g pbField) error {
				switch g.num {
				case 1:
					id = g.v
				case 2:
					name = g.v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out["cpu."+l] = 0
	}
	var total float64
	for _, s := range samples {
		layer := "other"
	walk:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					if l, ok := layerOf(strs[i]); ok {
						layer = l
						break walk
					}
				}
			}
		}
		out["cpu."+layer] += float64(s.cpu)
		total += float64(s.cpu)
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out, nil
}

// cpuLayers are the cpu.<layer> share buckets.
var cpuLayers = []string{
	"sched", "sim", "durable", "queue", "table", "json", "mlkit", "payload",
	"traffic", "functions", "sfn", "lambda", "gcp", "optimizer", "obs", "gc", "other",
}

// internalLayers maps statebench/internal package subtrees to layers.
var internalLayers = []struct{ pkg, layer string }{
	{"sim", "sim"},
	{"azure/durable", "durable"},
	{"azure/netherite", "durable"},
	{"cloud/queue", "queue"},
	{"cloud/table", "table"},
	{"mlkit", "mlkit"},
	{"payload", "payload"},
	{"traffic", "traffic"},
	{"azure/functions", "functions"},
	{"aws/sfn", "sfn"},
	{"aws/lambda", "lambda"},
	{"gcp", "gcp"},
	{"optimizer", "optimizer"},
	{"obs", "obs"},
}

// layerOf attributes a function symbol to a layer by its package; ok is
// false for frames charged to their caller instead.
func layerOf(fn string) (layer string, ok bool) {
	pkg := pkgOf(fn)
	switch {
	case pkg == "runtime":
		return runtimeLayer(strings.TrimPrefix(fn, "runtime."))
	case pkg == "encoding/json":
		return "json", true
	case strings.Contains(pkg, "sha256"):
		return "payload", true
	case strings.HasPrefix(pkg, "statebench/"):
		rest := strings.TrimPrefix(pkg, "statebench/internal/")
		for _, m := range internalLayers {
			if rest == m.pkg || strings.HasPrefix(rest, m.pkg+"/") {
				return m.layer, true
			}
		}
		return "other", true
	}
	return "", false
}

// pkgOf returns a symbol's package path: everything before the first
// dot after the last slash, ignoring generic type arguments.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// Runtime frames are garbage collection and allocation (gc), goroutine
// parking, channels and scheduling (sched), or helpers such as memmove
// and map access, which are charged to their caller.
var (
	gcFrames    = []string{"gc", "GC", "mark", "Mark", "scan", "sweep", "Sweep", "malloc", "mspan", "mheap", "mcache", "mcentral", "heapBits", "heapSetType", "wbBuf", "arrier", "memclr", "findObject", "greyobject", "nextFree", "pageAlloc", "spanOf", "typePointers", "newobject", "makeslice", "growslice", "newarray", "makemap", "scavenge"}
	schedFrames = []string{"park", "chan", "sched", "findRunnable", "findrunnable", "select", "sellock", "selunlock", "ready", "runq", "steal", "execute", "gogo", "mcall", "gosave", "wakep", "startm", "stopm", "note", "futex", "lock", "casgstatus", "spinning", "netpoll", "yield", "usleep", "newproc", "gfget", "gfput", "acquirep", "releasep", "handoffp", "semasleep", "semawakeup", "systemstack", "goexit", "dropg", "waitq", "syscall", "Timers", "send", "recv", "nanotime"}
)

func runtimeLayer(fn string) (string, bool) {
	for _, s := range gcFrames {
		if strings.Contains(fn, s) {
			return "gc", true
		}
	}
	for _, s := range schedFrames {
		if strings.Contains(fn, s) {
			return "sched", true
		}
	}
	return "", false
}

// pbField is one protobuf field: v holds varint and fixed-width values,
// b the bytes of a length-delimited one.
type pbField struct {
	num, typ int
	v        uint64
	b        []byte
}

var errProto = errors.New("malformed profile")

// pbWalk calls fn for each top-level field of a protobuf message.
func pbWalk(b []byte, fn func(pbField) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		f := pbField{num: int(key >> 3), typ: int(key & 7)}
		switch f.typ {
		case 0:
			if f.v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			f.v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			f.b, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			f.v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints decodes a repeated varint field, packed or not.
func pbVarints(f pbField) ([]uint64, error) {
	if f.typ != 2 {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out, b = append(out, v), b[n:]
	}
	return out, nil
}
