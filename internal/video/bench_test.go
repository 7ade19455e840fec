package video

import "testing"

func benchClip(frames int) (*Video, [][]Rect) {
	opt := DefaultGenerateOptions()
	opt.NumFrames = frames
	return Generate(opt)
}

func BenchmarkDetectFrame(b *testing.B) {
	v, _ := benchClip(1)
	m := DefaultModel(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.DetectFrame(v.Frames[0])
	}
}

func BenchmarkEncode(b *testing.B) {
	v, _ := benchClip(24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(v)
	}
}

func BenchmarkDecode(b *testing.B) {
	v, _ := benchClip(24)
	data := Encode(v)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPayloadFaceDetect measures one cache-cold decode + detect of
// a benchmark chunk — the detect stage's real compute — pinning the
// frame-pool and detector-scratch work.
func BenchmarkPayloadFaceDetect(b *testing.B) {
	v, _ := benchClip(12)
	data := Encode(v)
	m := DefaultModel(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk, err := Decode(data)
		if err != nil {
			b.Fatal(err)
		}
		m.DetectVideo(chunk)
		chunk.Release()
	}
}
