package mlpipe

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"testing"

	"statebench/internal/mlkit/preprocess"
	"statebench/internal/payload"
)

// artifactsByteEqual compares every serialized payload the pipeline
// produces — the property the cache must preserve is byte-equality, not
// pointer identity.
func artifactsByteEqual(t *testing.T, a, b *Artifacts) {
	t.Helper()
	if !bytes.Equal(a.DatasetCSV, b.DatasetCSV) {
		t.Fatal("DatasetCSV differs")
	}
	if !bytes.Equal(a.TestCSV, b.TestCSV) {
		t.Fatal("TestCSV differs")
	}
	// EncoderBytes is gob of a map-bearing struct: gob writes map
	// entries in Go's randomized iteration order, so two fresh encodes
	// of the very same encoder already differ byte-wise. The cache
	// property for this blob is content equality (same vocabulary,
	// same size), which the decoded comparison pins.
	if len(a.EncoderBytes) != len(b.EncoderBytes) {
		t.Fatalf("EncoderBytes sizes differ: %d vs %d", len(a.EncoderBytes), len(b.EncoderBytes))
	}
	var ea, eb preprocess.OneHotEncoder
	if err := gob.NewDecoder(bytes.NewReader(a.EncoderBytes)).Decode(&ea); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewDecoder(bytes.NewReader(b.EncoderBytes)).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ea, eb) {
		t.Fatal("decoded encoders differ")
	}
	if !bytes.Equal(a.ScalerBytes, b.ScalerBytes) {
		t.Fatal("ScalerBytes differs")
	}
	if !bytes.Equal(a.PCABytes, b.PCABytes) {
		t.Fatal("PCABytes differs")
	}
	for _, algo := range Algorithms {
		if !bytes.Equal(a.ModelBytes[algo], b.ModelBytes[algo]) {
			t.Fatalf("ModelBytes[%s] differs", algo)
		}
		if a.ModelMSE[algo] != b.ModelMSE[algo] {
			t.Fatalf("ModelMSE[%s] differs: %v vs %v", algo, a.ModelMSE[algo], b.ModelMSE[algo])
		}
	}
	if a.BestName != b.BestName || a.BestMSE != b.BestMSE {
		t.Fatalf("best model differs: %s/%v vs %s/%v", a.BestName, a.BestMSE, b.BestName, b.BestMSE)
	}
	if a.EncodedBytes != b.EncodedBytes || a.ProjectedBytes != b.ProjectedBytes {
		t.Fatal("intermediate sizes differ")
	}
}

// TestPayloadCacheDeterminism pins the engine's core property on every
// training stage (train plus the three fit/<algo> stages it contains):
// a cached result is byte-equal to a fresh recompute with the cache
// disabled.
func TestPayloadCacheDeterminism(t *testing.T) {
	eng := payload.NewEngine()
	cached, err := TrainWith(eng, Small)
	if err != nil {
		t.Fatal(err)
	}
	again, err := TrainWith(eng, Small)
	if err != nil {
		t.Fatal(err)
	}
	if cached != again {
		t.Fatal("second lookup did not hit the cache")
	}
	fresh, err := TrainWith(payload.Disabled(), Small)
	if err != nil {
		t.Fatal(err)
	}
	artifactsByteEqual(t, cached, fresh)

	// train + 3 fit stages, each computed exactly once.
	s := eng.Stats()
	if s.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (train + %d fit stages)", s.Misses, len(Algorithms))
	}
	if s.Hits != 1 {
		t.Fatalf("hits = %d, want 1", s.Hits)
	}
}

// TestPayloadCacheConcurrentWorkers races 8 campaign workers on one
// fresh engine (run under -race in tier1.5): the pipeline must compute
// exactly once, every worker must see byte-equal artifacts, and the
// stats must match the single-flight accounting.
func TestPayloadCacheConcurrentWorkers(t *testing.T) {
	const workers = 8
	eng := payload.NewEngine()
	results := make([]*Artifacts, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a, err := TrainWith(eng, Small)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = a
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if results[i] == nil {
			t.Fatalf("worker %d got nil artifacts", i)
		}
		artifactsByteEqual(t, results[0], results[i])
	}
	s := eng.Stats()
	if s.Misses != 4 {
		t.Fatalf("misses = %d, want 4: the pipeline recomputed", s.Misses)
	}
	if s.Hits != workers-1 {
		t.Fatalf("hits = %d, want %d", s.Hits, workers-1)
	}
}
