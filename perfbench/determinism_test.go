package main

import (
	"bytes"
	"crypto/sha256"
	"math"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// counts drops the host-time readings from a layer map, leaving the
// work counts that must repeat exactly.
func counts(layers map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range layers {
		if !strings.HasSuffix(k, "wall_s") && !strings.HasSuffix(k, "events_per_s") {
			out[k] = v
		}
	}
	return out
}

// tracedCounts runs a workload with the simulator's telemetry on and
// returns its work counts, span counts and output digest.
func tracedCounts(t *testing.T, name string, workers int) map[string]float64 {
	t.Helper()
	tr := newTracing()
	run, err := workloads[name].prepare(goldenSeed, workers, tr, &spanLog{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := run()
	if err != nil {
		t.Fatal(err)
	}
	out := counts(res.layers)
	for k, v := range tr.spanCounts() {
		out[k] = v
	}
	out["output."+digest(res.output)] = 1
	return out
}

func sameCounts(t *testing.T, what string, a, b map[string]float64) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("%s: counts differ:\n%v\n%v", what, a, b)
	}
}

// TestCensusCountsRepeat pins the census counts: identical between two
// runs and at Workers 1 vs 2, so later changes can cite them as exact.
func TestCensusCountsRepeat(t *testing.T) {
	var runs []map[string]float64
	for _, workers := range []int{1, 1, 2} {
		layers, err := census(goldenSeed, workers, &spanLog{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := len(layers), 6*len(censusStyles); got != want {
			t.Fatalf("census reported %d metrics, want %d", got, want)
		}
		runs = append(runs, counts(layers))
	}
	sameCounts(t, "census run 1 vs 2", runs[0], runs[1])
	sameCounts(t, "census Workers 1 vs 2", runs[0], runs[2])
	for _, style := range censusStyles {
		if runs[0]["census."+string(style)+".events"] == 0 {
			t.Fatalf("census %s executed no kernel events", style)
		}
	}
}

// TestSweepCountsRepeat pins spans.*, payload.* and optimizer.* on the
// ml-sweep workload across runs and worker counts.
func TestSweepCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("three quick-scale optimize sweeps")
	}
	first := tracedCounts(t, "ml-sweep", 1)
	sameCounts(t, "ml-sweep run 1 vs 2", first, tracedCounts(t, "ml-sweep", 1))
	sameCounts(t, "ml-sweep Workers 1 vs 2", first, tracedCounts(t, "ml-sweep", 2))
	for _, k := range []string{"spans.run", "payload.hits", "optimizer.evals"} {
		if first[k] == 0 {
			t.Fatalf("%s is 0", k)
		}
	}
}

// TestTrafficCountsRepeat pins traffic.events and the other open-loop
// counts across runs.
func TestTrafficCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("two million-tenant traffic runs")
	}
	first := tracedCounts(t, "open-loop", 1)
	sameCounts(t, "open-loop run 1 vs 2", first, tracedCounts(t, "open-loop", 1))
	if first["traffic.events"] == 0 {
		t.Fatal("traffic.events is 0")
	}
}

func TestCPUSharesAttribution(t *testing.T) {
	cases := []struct {
		fn, layer string
		ok        bool
	}{
		{"statebench/internal/sim.(*Kernel).RunUntil", "sim", true},
		{"statebench/internal/azure/durable.(*classicStore).pollLoop", "durable", true},
		{"statebench/internal/mlkit/ensemble.(*Forest).Fit.func1", "mlkit", true},
		{"statebench/internal/payload.Get[go.shape.*uint8]", "payload", true},
		{"crypto/internal/fips140/sha256.blockAVX2", "payload", true},
		{"encoding/json.(*decodeState).object", "json", true},
		{"statebench/internal/workloads/mlpipe.train", "other", true},
		{"runtime.chanrecv", "sched", true},
		{"runtime.mallocgc", "gc", true},
		{"runtime.memmove", "", false},
		{"slices.pdqsortCmpFunc[go.shape.float64]", "", false},
	}
	for _, c := range cases {
		if layer, ok := layerOf(c.fn); layer != c.layer || ok != c.ok {
			t.Errorf("layerOf(%q) = %q, %v; want %q, %v", c.fn, layer, ok, c.layer, c.ok)
		}
	}
}

// TestCPUSharesDecodesProfile records a CPU profile of a loop that only
// hashes, decodes it, and expects the shares to sum to 1 with most of
// the time charged to the payload layer, where sha256 belongs.
func TestCPUSharesDecodesProfile(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	sum := sha256.Sum256(nil)
	for stop := time.Now().Add(500 * time.Millisecond); time.Now().Before(stop); {
		for i := 0; i < 1000; i++ {
			sum = sha256.Sum256(sum[:])
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(shares), len(cpuLayers); got != want {
		t.Fatalf("%d shares, want one per layer (%d)", got, want)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("shares sum to %v, want 1: %v", total, shares)
	}
	if shares["cpu.payload"] < 0.5 {
		t.Fatalf("cpu.payload = %v for a sha256 loop, want most of it: %v", shares["cpu.payload"], shares)
	}
}
