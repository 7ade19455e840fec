package payload_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"statebench/internal/obs/metrics"
	"statebench/internal/payload"
	"statebench/internal/video"
)

func TestDigestHelpers(t *testing.T) {
	if payload.DigestBytes([]byte("a")) == payload.DigestBytes([]byte("b")) {
		t.Fatal("distinct bytes collided")
	}
	if payload.DigestString("x") != payload.DigestBytes([]byte("x")) {
		t.Fatal("DigestString disagrees with DigestBytes")
	}
	if payload.DigestOf("a", 1) != payload.DigestOf("a", 1) {
		t.Fatal("DigestOf not deterministic")
	}
	if payload.DigestOf("a", 1) == payload.DigestOf("a", 2) {
		t.Fatal("DigestOf ignored an argument")
	}
	if payload.DigestInts(1, 2) == payload.DigestInts(2, 1) {
		t.Fatal("DigestInts is order-insensitive")
	}
}

func TestGetMemoizesPerKey(t *testing.T) {
	eng := payload.NewEngine()
	key := payload.Key{Workload: "w", Stage: "s", Input: payload.DigestString("in")}
	calls := 0
	compute := func() ([]byte, int, error) {
		calls++
		return []byte("result"), 6, nil
	}
	v1, hit1, err := payload.Get(eng, key, compute)
	if err != nil || hit1 {
		t.Fatalf("first lookup: hit=%v err=%v", hit1, err)
	}
	v2, hit2, err := payload.Get(eng, key, compute)
	if err != nil || !hit2 {
		t.Fatalf("second lookup: hit=%v err=%v", hit2, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times", calls)
	}
	if !bytes.Equal(v1, v2) {
		t.Fatal("cached result differs from computed result")
	}
	other := key
	other.Params = payload.DigestString("p")
	if _, hit, _ := payload.Get(eng, other, compute); hit {
		t.Fatal("different params digest served from cache")
	}
	s := eng.Stats()
	if s.Hits != 1 || s.Misses != 2 || s.Bytes != 12 {
		t.Fatalf("stats = %+v", s)
	}
	if eng.Len() != 2 {
		t.Fatalf("Len = %d", eng.Len())
	}
}

func TestErrorsAreCached(t *testing.T) {
	eng := payload.NewEngine()
	key := payload.Key{Workload: "w", Stage: "fail"}
	calls := 0
	compute := func() (int, int, error) {
		calls++
		return 0, 0, fmt.Errorf("deterministic failure")
	}
	if _, _, err := payload.Get(eng, key, compute); err == nil {
		t.Fatal("error swallowed")
	}
	if _, hit, err := payload.Get(eng, key, compute); err == nil || !hit {
		t.Fatalf("cached error lookup: hit=%v err=%v", hit, err)
	}
	if calls != 1 {
		t.Fatalf("failed compute ran %d times", calls)
	}
	if s := eng.Stats(); s.Bytes != 0 {
		t.Fatalf("failed compute accounted bytes: %+v", s)
	}
}

func TestDisabledAndNilEngines(t *testing.T) {
	key := payload.Key{Workload: "w", Stage: "s"}
	for name, eng := range map[string]*payload.Engine{"disabled": payload.Disabled(), "nil": nil} {
		calls := 0
		compute := func() (string, int, error) {
			calls++
			return "v", 1, nil
		}
		for i := 0; i < 3; i++ {
			v, hit, err := payload.Get(eng, key, compute)
			if err != nil || hit || v != "v" {
				t.Fatalf("%s engine: v=%q hit=%v err=%v", name, v, hit, err)
			}
		}
		if calls != 3 {
			t.Fatalf("%s engine memoized: %d calls", name, calls)
		}
		if eng.Enabled() {
			t.Fatalf("%s engine reports enabled", name)
		}
		if s := eng.Stats(); s != (payload.Stats{}) {
			t.Fatalf("%s engine recorded stats: %+v", name, s)
		}
	}
}

// TestConcurrentLookupsSingleFlight is the concurrency half of the
// determinism property: 8 workers race on one key (run under -race in
// tier1.5); the compute must run exactly once and every worker must see
// the same bytes.
func TestConcurrentLookupsSingleFlight(t *testing.T) {
	const workers = 8
	eng := payload.NewEngine()
	key := payload.Key{Workload: "w", Stage: "s", Input: payload.DigestString("shared")}
	var calls atomic.Int64
	results := make([][]byte, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := payload.Get(eng, key, func() ([]byte, int, error) {
				calls.Add(1)
				return []byte("concurrent-result"), 17, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = v
		}(i)
	}
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("compute ran %d times for one key", got)
	}
	for i := 1; i < workers; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("worker %d saw different bytes", i)
		}
	}
	s := eng.Stats()
	if s.Misses != 1 || s.Hits != workers-1 || s.Bytes != 17 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestVideoDetectStageDeterminism pins the byte-equality property on
// the real face-detection stage: a result served from cache must be
// byte-identical to a fresh recompute of the same chunk.
func TestVideoDetectStageDeterminism(t *testing.T) {
	opt := video.DefaultGenerateOptions()
	opt.NumFrames = 8
	clip, _ := video.Generate(opt)
	chunkBytes := video.Encode(clip)
	model := video.DefaultModel(0)

	detect := func() ([]byte, int, error) {
		chunk, err := video.Decode(chunkBytes)
		if err != nil {
			return nil, 0, err
		}
		out, err := json.Marshal(model.DetectVideo(chunk))
		if err != nil {
			return nil, 0, err
		}
		chunk.Release()
		return out, len(out), nil
	}

	eng := payload.NewEngine()
	key := payload.Key{
		Workload: "video",
		Stage:    "detect/chunk",
		Input:    payload.DigestBytes(chunkBytes),
		Params:   payload.DigestOf(model.WindowSizes, model.Contrast, model.MinBrightness, model.Stride, model.NMSIoU),
	}
	cached, _, err := payload.Get(eng, key, detect)
	if err != nil {
		t.Fatal(err)
	}
	again, hit, err := payload.Get(eng, key, detect)
	if err != nil || !hit {
		t.Fatalf("second lookup: hit=%v err=%v", hit, err)
	}
	fresh, _, err := detect()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cached, fresh) || !bytes.Equal(again, fresh) {
		t.Fatal("cached detection result differs from fresh recompute")
	}
}

func TestEmitTo(t *testing.T) {
	eng := payload.NewEngine()
	key := payload.Key{Workload: "w", Stage: "s"}
	compute := func() (int, int, error) { return 1, 5, nil }
	payload.Get(eng, key, compute)
	payload.Get(eng, key, compute)

	reg := metrics.NewRegistry()
	eng.EmitTo(reg)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		payload.MetricHits + " 1",
		payload.MetricMisses + " 1",
		payload.MetricBytes + " 5",
	} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Disabled and nil engines must leave the registry untouched.
	before := buf.Len()
	payload.Disabled().EmitTo(reg)
	(*payload.Engine)(nil).EmitTo(reg)
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != before {
		t.Fatal("disabled engine changed the exposition")
	}
}

func TestZeros(t *testing.T) {
	if payload.Zeros(0) != nil || payload.Zeros(-1) != nil {
		t.Fatal("non-positive length returned bytes")
	}
	a := payload.Zeros(64)
	b := payload.Zeros(16)
	if len(a) != 64 || len(b) != 16 {
		t.Fatalf("lengths %d/%d", len(a), len(b))
	}
	if cap(b) != 16 {
		t.Fatalf("cap leaks arena: %d", cap(b))
	}
	for i, v := range a {
		if v != 0 {
			t.Fatalf("non-zero byte at %d", i)
		}
	}
	// Growing must keep earlier views valid (all zero, same contract).
	c := payload.Zeros(128)
	if len(c) != 128 {
		t.Fatalf("grown length %d", len(c))
	}
}
