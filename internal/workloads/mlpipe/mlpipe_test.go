package mlpipe

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"testing"
	"time"

	"statebench/internal/payload"
	"statebench/internal/sim"
)

func TestTrainSmallProducesArtifacts(t *testing.T) {
	a, err := TrainWith(payload.Shared(), Small)
	if err != nil {
		t.Fatal(err)
	}
	if a.BestName == "" || a.BestMSE <= 0 {
		t.Fatalf("no best model: %q %v", a.BestName, a.BestMSE)
	}
	if len(a.DatasetCSV) == 0 || len(a.TestCSV) == 0 {
		t.Fatal("missing dataset payloads")
	}
	for _, algo := range Algorithms {
		if len(a.ModelBytes[algo]) == 0 {
			t.Fatalf("model %s serialized to zero bytes", algo)
		}
		if a.ModelMSE[algo] <= 0 {
			t.Fatalf("model %s has no score", algo)
		}
	}
	if a.BestMSE > a.ModelMSE["kneighbors"] {
		t.Fatal("best fit is not the minimum MSE")
	}
	if len(a.EncoderBytes) == 0 || len(a.ScalerBytes) == 0 || len(a.PCABytes) == 0 {
		t.Fatal("transformer serialization empty")
	}
}

func TestTrainIsCached(t *testing.T) {
	a1, err := TrainWith(payload.Shared(), Small)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := TrainWith(payload.Shared(), Small)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatal("Train not cached")
	}
}

func TestDecodeModelRoundTrip(t *testing.T) {
	a, err := TrainWith(payload.Shared(), Small)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms {
		m := NewModel(algo, Small)
		if err := gob.NewDecoder(bytes.NewReader(a.ModelBytes[algo])).Decode(m); err != nil {
			t.Fatalf("decode %s: %v", algo, err)
		}
		// The decoded model must predict (smoke test on a synthetic
		// row of the projected width).
		row := make([]float64, PCAComponents)
		if _, err := m.Predict([][]float64{row}); err != nil {
			t.Fatalf("decoded %s cannot predict: %v", algo, err)
		}
	}
}

func TestCostsScaleWithDatasetAndSpeed(t *testing.T) {
	k := sim.NewKernel(1)
	aws := NewCosts(k, "a", AWSSpeed)
	az := NewCosts(k, "b", AzureSpeed)
	if aws.Prep(Large) <= aws.Prep(Small)*3 {
		t.Fatal("large dataset not slower than small")
	}
	// Average over samples to beat the noise: Azure must be slower.
	var awsSum, azSum time.Duration
	for i := 0; i < 50; i++ {
		awsSum += aws.MonolithTrain(Large)
		azSum += az.MonolithTrain(Large)
	}
	if azSum <= awsSum {
		t.Fatalf("azure (%v) not slower than aws (%v)", azSum, awsSum)
	}
	// RandomForest dominates the model-selection step.
	if aws.TrainModel("randomforest", Large) < aws.TrainModel("lasso", Large) {
		t.Fatal("randomforest not the heavy model")
	}
}

func TestCostsDeterministicPerStream(t *testing.T) {
	mk := func() time.Duration {
		k := sim.NewKernel(7)
		c := NewCosts(k, "x", 1)
		return c.Prep(Large) + c.DimRed(Small)
	}
	if mk() != mk() {
		t.Fatal("cost model not deterministic")
	}
}

func TestResultEncoding(t *testing.T) {
	var r TrainResult
	err := json.Unmarshal(EncodeResult("lasso", 12.5), &r)
	if err != nil || r.Best != "lasso" || r.MSE != 12.5 {
		t.Fatalf("round trip: %+v %v", r, err)
	}
}
