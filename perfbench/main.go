// Command perfbench runs one statebench benchmark workload in this
// process and prints what it measured as one JSON object on the last
// line of standard output. It calls only the simulator's public entry
// points and reads only public stats; run.py beside it builds this
// program, spawns one process per measured run, checks the outputs
// and aggregates the results.
//
// Usage:
//
//	perfbench -workload paper-hub|ml-sweep|open-loop [-seed N] [-trace]
//	          [-setup-only] [-t0 UNIXNANO] [-out DIR]
//
// Without -trace the simulator runs with metrics, timelines and
// profiling off, and the result carries the host-time end-to-end
// figures. With -trace it sets Options.Metrics and Options.Timeline,
// takes a CPU profile of the workload call, and adds the per-layer
// census (see README.md). -setup-only stops right before the
// workload's first call, so the caller can sample set-up time cheaply.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procStart approximates process start when no -t0 is given.
var procStart = time.Now()

// benchWorkers is the campaign worker pool size of every measured run.
const benchWorkers = 1

// probe is everything one workload process reports.
type probe struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Workers   int                `json:"workers"`
	Traced    bool               `json:"traced"`
	SetupS    float64            `json:"setup_s"`
	WallS     float64            `json:"wall_s"`
	CPUS      float64            `json:"cpu_s"`
	PeakRSSMB float64            `json:"peak_rss_mb"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Events    uint64             `json:"events"`
	Digest    string             `json:"digest"`
	Golden    bool               `json:"golden"`
	Problems  []string           `json:"problems"`
	Layers    map[string]float64 `json:"layers"`
	Stamp     stamp              `json:"stamp"`
}

// stamp identifies the host and settings a result was measured under;
// cpu.sched in particular depends on GOMAXPROCS.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), "|"))
	seed := flag.Uint64("seed", 42, "simulation seed (the goldens apply at 42)")
	traced := flag.Bool("trace", false, "traced run: metrics, timeline, CPU profile and layer census")
	setupOnly := flag.Bool("setup-only", false, "exit right before the workload's first call")
	t0 := flag.Int64("t0", 0, "caller's wall clock (Unix ns) just before it started this process")
	out := flag.String("out", "", "directory for the traced run's spans and CPU profile")
	flag.Parse()

	p, err := runProbe(*name, *seed, *traced, *setupOnly, *t0, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if len(p.Problems) > 0 {
		os.Exit(3)
	}
}

// runProbe prepares the workload, times its run and checks its output.
func runProbe(name string, seed uint64, traced, setupOnly bool, t0 int64, out string) (*probe, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames(), "|"))
	}
	var tr *tracing
	if traced {
		tr = newTracing()
	}
	spans := &spanLog{}
	run, err := w.prepare(seed, benchWorkers, tr, spans)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", name, err)
	}
	start := time.Now()
	p := &probe{
		Workload: name, Seed: seed, Workers: benchWorkers, Traced: traced,
		SetupS: setupSeconds(start, t0),
		Stamp:  stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		Layers: map[string]float64{},
	}
	if setupOnly {
		return p, nil
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	heap := watchHeap(20 * time.Millisecond)
	cpu0 := cpuSeconds()
	res, err := run()
	p.CPUS = cpuSeconds() - cpu0
	p.WallS = time.Since(start).Seconds()
	heapPeak := heap.stop()
	if traced {
		pprof.StopCPUProfile()
	}
	p.PeakRSSMB = peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	p.Attempted, p.Failed, p.Events = res.attempted, res.failed, res.events
	p.Digest = digest(res.output)
	p.Golden, p.Problems = w.check(seed, res)
	maps.Copy(p.Layers, res.layers)
	maps.Copy(p.Layers, spans.walls())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Layers["go.alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	p.Layers["go.gc_cycles"] = float64(ms.NumGC)
	p.Layers["go.heap_peak_mb"] = float64(heapPeak) / (1 << 20)
	if !traced {
		return p, nil
	}

	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	maps.Copy(p.Layers, shares)
	maps.Copy(p.Layers, tr.spanCounts())
	// The drill-down runs after the profile stops, so it never skews the
	// workload's shares.
	if w.probe != nil {
		layers, err := w.probe(seed, benchWorkers, spans)
		if err != nil {
			return nil, err
		}
		maps.Copy(p.Layers, layers)
	}
	if out != "" {
		if err := writeArtifacts(out, name, spans, prof.Bytes()); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// setupSeconds is the host time from process start (the caller's t0
// when given) to the workload's first call.
func setupSeconds(now time.Time, t0 int64) float64 {
	if t0 > 0 {
		return float64(now.UnixNano()-t0) / 1e9
	}
	return now.Sub(procStart).Seconds()
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// writeArtifacts saves the traced run's host spans (JSON) and CPU
// profile under dir.
func writeArtifacts(dir, name string, spans *spanLog, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans.list(), "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".spans.json"), b, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".cpu.pprof"), prof, 0o644)
}
