package span

import (
	"encoding/json"
	"io"
	"strconv"
	"time"
)

// chromeEvent is one entry in the Chrome trace-event JSON array format
// (the "X" complete-event flavor plus "C" counters), loadable in
// chrome://tracing and https://ui.perfetto.dev. Timestamps and
// durations are microseconds. Args values are strings for span events
// and float64 for counter events (the viewer graphs numeric args);
// string values render byte-identically to the former map[string]string
// encoding.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  uint64         `json:"pid"`
	Tid  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeDoc is the object form of the trace file, which lets viewers
// show a display unit and tolerates trailing metadata.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// CounterPoint is one sample on a counter track: the counter's values
// at virtual time Ts.
type CounterPoint struct {
	Ts     time.Duration
	Values map[string]float64
}

// CounterTrack is a named Chrome trace counter series ("ph":"C"): the
// viewer renders each point's values as a stacked area graph over time.
// Used to draw per-window rates and backlogs beside the span lanes.
type CounterTrack struct {
	Name   string
	Points []CounterPoint
}

// WriteChromeTraceWith renders spans as Chrome trace-event JSON. Each
// trace ID becomes one pid lane, so every run of a campaign gets its
// own group; within a lane, tid 0 carries the span tree in emit order.
// Span IDs, parents, kinds, and attrs are preserved in args. Output is
// deterministic: spans render in the order given and args keys are
// sorted by the JSON encoder. Each counter track renders as a "ph":"C"
// series on pid 0 (above the per-trace lanes), one event per point;
// counter values are emitted through chromeEvent's numeric-args
// variant so the viewer graphs them.
func WriteChromeTraceWith(w io.Writer, spans []Span, tracks []CounterTrack) error {
	n := len(spans)
	for _, t := range tracks {
		n += len(t.Points)
	}
	doc := chromeDoc{TraceEvents: make([]chromeEvent, 0, n), DisplayTimeUnit: "ms"}
	for _, t := range tracks {
		for _, p := range t.Points {
			args := make(map[string]any, len(p.Values))
			for k, v := range p.Values {
				args[k] = v
			}
			doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
				Name: t.Name,
				Cat:  "counter",
				Ph:   "C",
				Ts:   float64(p.Ts.Microseconds()),
				Pid:  0,
				Tid:  0,
				Args: args,
			})
		}
	}
	for _, s := range spans {
		args := map[string]any{
			"span":   strconv.FormatUint(s.SpanID, 10),
			"parent": strconv.FormatUint(s.Parent, 10),
		}
		for _, a := range s.Attrs {
			args["attr."+a.Key] = a.Value
		}
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name,
			Cat:  string(s.Kind),
			Ph:   "X",
			Ts:   float64(s.Start.Microseconds()),
			Dur:  float64(s.Duration().Microseconds()),
			Pid:  s.TraceID,
			Tid:  0,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
