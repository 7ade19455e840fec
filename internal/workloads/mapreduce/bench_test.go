package mapreduce

import (
	"testing"

	"statebench/internal/core"
	"statebench/internal/payload"
)

// BenchmarkPayloadMapReduce measures one warm AWS-Step campaign at the
// default shape (8 mappers, 4 reducers, a 4 MB corpus, 10 runs) on an
// engine an earlier campaign primed: the corpus and every chunk's
// partitioned counts are cache hits, so what remains is the simulation
// and the work of keying those lookups by content.
func BenchmarkPayloadMapReduce(b *testing.B) {
	wf := New()
	opt := core.DefaultMeasureOptions()
	opt.Iters, opt.PayloadCache = 10, payload.NewEngine()
	if _, err := core.Measure(wf, core.AWSStep, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Measure(wf, core.AWSStep, opt)
		if err != nil {
			b.Fatal(err)
		}
		if s.Errors != 0 {
			b.Fatalf("%d runs failed", s.Errors)
		}
	}
}
