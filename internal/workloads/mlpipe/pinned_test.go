package mlpipe

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"statebench/internal/payload"
)

// TestTrainedArtifactsPinned pins what model selection produces for both
// dataset sizes: every serialized model's length and SHA-256, the bit
// pattern of every validation MSE, and the selected model. The datasets
// come from fixed seeds, so these bytes are the same under every
// simulation seed, and their lengths become the payload sizes the
// workflows move; an mlkit change that alters one byte of a model
// changes simulated output.
func TestTrainedArtifactsPinned(t *testing.T) {
	type model struct {
		sha256  string
		n       int
		mseBits uint64
	}
	cases := []struct {
		size   DatasetSize
		models map[string]model
		best   string
	}{
		{Small, map[string]model{
			"kneighbors":   {"fa49aa1be64b715728b5931fa0cf05ba00c5ef73cc5c3a758f7f6cdcc7e12b32", 28619, 0x41bde96adf4b6fd1},
			"lasso":        {"866e766f9bf449273309525842d2fb133e491ea0eda7673efbff289f7e2d3a98", 316, 0x41b5dc4f0a1c9b7d},
			"randomforest": {"8274cd8e725febc34410be4fedc10c8deb847c5c570f3b94f1f6cfe341b597f0", 29488, 0x41c07060e6922466},
		}, "lasso"},
		{Large, map[string]model{
			"kneighbors":   {"cb072d93500780f3e80715d054a00ce9474d09631f4f501f8c14ccbdb97ebdba", 1424476, 0x41b4f57dc104744a},
			"lasso":        {"1b68453a2d544c259a41dde0489c1ee750f02d8da84785980fb0e7a1e922fdef", 317, 0x41aefbb1690eaf16},
			"randomforest": {"f1e828465bda06de0b7e1ce21aed9fdc7776f4600485cf4952a41bc2e1597458", 1337211, 0x41aaea6b184b8845},
		}, "randomforest"},
	}
	// A fresh engine, not payload.Shared(), so that every run of the
	// test (-count, the race detector's repeats) fits the models.
	eng := payload.NewEngine()
	for _, c := range cases {
		a, err := TrainWith(eng, c.size)
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range Algorithms {
			want := c.models[algo]
			blob := a.ModelBytes[algo]
			sum := sha256.Sum256(blob)
			got := model{hex.EncodeToString(sum[:]), len(blob), math.Float64bits(a.ModelMSE[algo])}
			if got != want {
				t.Errorf("%s %s: got {%q, %d, %#x}, want {%q, %d, %#x}", c.size, algo,
					got.sha256, got.n, got.mseBits, want.sha256, want.n, want.mseBits)
			}
		}
		if a.BestName != c.best || a.BestMSE != a.ModelMSE[c.best] {
			t.Errorf("%s: best = %s (MSE %v), want %s (MSE %v)", c.size, a.BestName, a.BestMSE, c.best, a.ModelMSE[c.best])
		}
	}
}
