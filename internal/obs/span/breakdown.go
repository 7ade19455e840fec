package span

import (
	"time"

	"statebench/internal/obs"
)

// BreakdownOf derives a latency breakdown for one trace by summing its
// leaf spans per kind:
//
//	ColdStart  = Σ KindCold
//	QueueTime  = Σ KindQueue + Σ KindHop
//	ExecTime   = Σ KindExec
//	Other      = Σ KindTransition
//
// Container spans (run, invoke, orchestration, episode, entityop,
// stage) are not summed — they overlap the leaves. Like the
// snapshot-delta path in core (RunStats.Breakdown with execDelta), the
// sums count parallel branches cumulatively, so for fan-out workflows
// ExecTime can exceed wall-clock E2E; the two paths stay comparable
// because they over-count identically.
func BreakdownOf(spans []Span, traceID uint64) obs.Breakdown {
	var b obs.Breakdown
	for _, s := range spans {
		if s.TraceID != traceID {
			continue
		}
		d := s.Duration()
		switch s.Kind {
		case KindCold:
			b.ColdStart += d
		case KindQueue, KindHop:
			b.QueueTime += d
		case KindExec:
			b.ExecTime += d
		case KindTransition:
			b.Other += d
		}
	}
	return b
}

// TotalByKind sums span durations per kind over one trace — the raw
// material for summaries and tests. traceID 0 sums across all traces.
func TotalByKind(spans []Span, traceID uint64) map[Kind]time.Duration {
	out := make(map[Kind]time.Duration)
	for _, s := range spans {
		if traceID != 0 && s.TraceID != traceID {
			continue
		}
		out[s.Kind] += s.Duration()
	}
	return out
}
