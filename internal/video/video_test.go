package video

import (
	"testing"
	"testing/quick"
)

func smallOpts() GenerateOptions {
	o := DefaultGenerateOptions()
	o.NumFrames = 12
	return o
}

func TestGenerateShape(t *testing.T) {
	v, truth := Generate(smallOpts())
	if len(v.Frames) != 12 || v.W != 160 || v.H != 120 {
		t.Fatalf("shape %dx%d x%d", v.W, v.H, len(v.Frames))
	}
	if len(truth) != 12 {
		t.Fatalf("truth frames = %d", len(truth))
	}
	for i, boxes := range truth {
		if len(boxes) != 3 {
			t.Fatalf("frame %d has %d faces", i, len(boxes))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(smallOpts())
	b, _ := Generate(smallOpts())
	for i := range a.Frames {
		for j := range a.Frames[i].Pix {
			if a.Frames[i].Pix[j] != b.Frames[i].Pix[j] {
				t.Fatal("same seed produced different video")
			}
		}
	}
}

func TestSplitMergeRoundTrip(t *testing.T) {
	v, _ := Generate(smallOpts())
	chunks, err := v.Split(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 5 {
		t.Fatalf("chunks = %d", len(chunks))
	}
	// The chunks, in order, hold every frame of the source exactly once.
	var frames []*Frame
	for _, c := range chunks {
		frames = append(frames, c.Frames...)
	}
	if len(frames) != 12 {
		t.Fatalf("chunk frames = %d", len(frames))
	}
	for i := range frames {
		for j := range frames[i].Pix {
			if frames[i].Pix[j] != v.Frames[i].Pix[j] {
				t.Fatalf("split lost pixels at frame %d", i)
			}
		}
	}
}

func TestSplitErrors(t *testing.T) {
	v, _ := Generate(smallOpts())
	if _, err := v.Split(0); err == nil {
		t.Fatal("split 0 accepted")
	}
	if _, err := v.Split(13); err == nil {
		t.Fatal("split beyond frames accepted")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	v, _ := Generate(smallOpts())
	data := Encode(v)
	if len(data) == 0 {
		t.Fatal("empty encoding")
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != v.W || back.H != v.H || back.FPS != v.FPS || len(back.Frames) != len(v.Frames) {
		t.Fatal("header mismatch")
	}
	for i := range v.Frames {
		for j := range v.Frames[i].Pix {
			if back.Frames[i].Pix[j] != v.Frames[i].Pix[j] {
				t.Fatalf("pixel mismatch frame %d", i)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 20), // zero magic
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d decoded", i)
		}
	}
	// Truncated valid stream.
	v, _ := Generate(smallOpts())
	data := Encode(v)
	if _, err := Decode(data[:len(data)/2]); err == nil {
		t.Fatal("truncated stream decoded")
	}
}

func TestDetectorFindsPlantedFaces(t *testing.T) {
	opt := smallOpts()
	opt.NumFrames = 8
	v, truth := Generate(opt)
	m := DefaultModel(0)
	dets := m.DetectVideo(v)
	precision, recall := Evaluate(dets, truth, 0.3)
	if recall < 0.7 {
		t.Fatalf("recall = %.2f, want >= 0.7", recall)
	}
	if precision < 0.5 {
		t.Fatalf("precision = %.2f, want >= 0.5", precision)
	}
}

func TestDetectionEquivalenceSplitVsWhole(t *testing.T) {
	// Chunked detection must equal whole-video detection (frames are
	// independent) — the correctness invariant of the parallel pipeline.
	opt := smallOpts()
	v, _ := Generate(opt)
	m := DefaultModel(0)
	whole := m.DetectVideo(v)
	chunks, err := v.Split(4)
	if err != nil {
		t.Fatal(err)
	}
	var stitched [][]Detection
	for _, c := range chunks {
		stitched = append(stitched, m.DetectVideo(c)...)
	}
	if len(stitched) != len(whole) {
		t.Fatalf("lengths %d vs %d", len(stitched), len(whole))
	}
	for i := range whole {
		if len(whole[i]) != len(stitched[i]) {
			t.Fatalf("frame %d: %d vs %d detections", i, len(whole[i]), len(stitched[i]))
		}
		for j := range whole[i] {
			if whole[i][j] != stitched[i][j] {
				t.Fatalf("frame %d det %d differs", i, j)
			}
		}
	}
}

func TestModelSerializationAndSize(t *testing.T) {
	m := DefaultModel(1 << 20)
	data, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 1<<20 {
		t.Fatalf("model size %d, want >= 1 MiB", len(data))
	}
	back, err := DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Contrast != m.Contrast || len(back.WindowSizes) != len(m.WindowSizes) {
		t.Fatal("model round trip lost parameters")
	}
	if _, err := DecodeModel([]byte("junk")); err == nil {
		t.Fatal("junk model decoded")
	}
}

func TestIoU(t *testing.T) {
	a := Rect{X: 0, Y: 0, W: 10, H: 10}
	if a.IoU(a) != 1 {
		t.Fatal("self IoU != 1")
	}
	b := Rect{X: 10, Y: 10, W: 10, H: 10}
	if a.IoU(b) != 0 {
		t.Fatal("disjoint IoU != 0")
	}
	c := Rect{X: 5, Y: 0, W: 10, H: 10} // overlap 50, union 150
	if got := a.IoU(c); got < 0.33 || got > 0.34 {
		t.Fatalf("IoU = %v", got)
	}
}

func TestIntegralImage(t *testing.T) {
	f := NewFrame(4, 3)
	for i := range f.Pix {
		f.Pix[i] = uint8(i + 1) // 1..12
	}
	var ii integralImage
	ii.reset(f)
	if got := ii.rectSum(0, 0, 4, 3); got != 78 {
		t.Fatalf("full sum = %d, want 78", got)
	}
	if got := ii.rectSum(1, 1, 2, 2); got != 6+7+10+11 {
		t.Fatalf("inner sum = %d", got)
	}
	if got := ii.rectSum(0, 0, 1, 1); got != 1 {
		t.Fatalf("corner = %d", got)
	}
	// Reuse with a smaller frame must re-zero the border row/column
	// left over from the larger layout.
	small := NewFrame(2, 2)
	for i := range small.Pix {
		small.Pix[i] = 10
	}
	ii.reset(small)
	if got := ii.rectSum(0, 0, 2, 2); got != 40 {
		t.Fatalf("reused full sum = %d, want 40", got)
	}
	if got := ii.rectSum(1, 0, 1, 2); got != 20 {
		t.Fatalf("reused column sum = %d, want 20", got)
	}
}

// Property: codec round-trips arbitrary tiny frames losslessly.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(pix []byte, wRaw uint8) bool {
		w := int(wRaw%16) + 1
		if len(pix) < w {
			return true
		}
		h := len(pix) / w
		if h == 0 || h > 64 {
			return true
		}
		fr := NewFrame(w, h)
		copy(fr.Pix, pix[:w*h])
		v := &Video{W: w, H: h, FPS: 1, Frames: []*Frame{fr}}
		back, err := Decode(Encode(v))
		if err != nil {
			return false
		}
		for i := range fr.Pix {
			if back.Frames[0].Pix[i] != fr.Pix[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
