// Package videoproc implements the paper's video-processing workload
// (Fig 5): a sequential split of the input video into chunks, a
// homogeneous army of CPU-intensive face-detection workers over the
// chunks (each fetching a ~1 MB model from blob storage), and a final
// merge — in the Table II styles (AWS-Lambda, AWS-Step with a Map
// state, Az-Func, Az-Dorch with dynamic fan-out).
//
// Chunk payloads always exceed the service payload limits, so all video
// bytes move through blob storage, exactly as the paper's
// implementation was forced to do.
//
// The workflow is defined once as a provider-neutral flow graph
// (def.go); per-provider deployments are produced by the registered
// flow lowerers, so this package contains zero provider-specific
// deployment code.
package videoproc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf16"
	"unicode/utf8"

	"statebench/internal/core"
	"statebench/internal/flow"
	_ "statebench/internal/flow/lowerers"
)

// Spec describes the (virtual) input video and detection workload.
type Spec struct {
	// TotalBytes is the input video size (paper: 100 MB Sintel clip).
	TotalBytes int
	// Frames is the total frame count across the video.
	Frames int
	// ModelBytes is the face-detection model each worker fetches.
	ModelBytes int
	// PerFrame is the detection time per frame at AWS speed with the
	// paper's 2 GB configuration.
	PerFrame time.Duration
	// SplitBW and MergeBW are the chunking/merging throughputs
	// (bytes/sec of video processed).
	SplitBW float64
	MergeBW float64
}

// DefaultSpec matches the paper's setup: 100 MB video, ~12.5 minutes of
// CPU-bound detection in total.
func DefaultSpec() Spec {
	return Spec{
		TotalBytes: 100e6,
		Frames:     3000,
		ModelBytes: 1e6,
		// 200 ms/frame keeps the monolithic implementations inside
		// both platforms' execution limits (AWS 15 min at full speed,
		// Azure 30 min at consumption-plan speed), as the paper's
		// monoliths evidently were.
		PerFrame: 200 * time.Millisecond,
		SplitBW:  30e6,
		MergeBW:  40e6,
	}
}

// DetectTotal returns the full-video detection time at AWS speed.
func (s Spec) DetectTotal() time.Duration { return time.Duration(s.Frames) * s.PerFrame }

// Workflow is the video-processing workload for a worker count.
type Workflow struct {
	Workers int
	Spec    Spec
	// MapConcurrency bounds the AWS Map state's parallelism
	// (0 = unbounded), for the concurrency ablation.
	MapConcurrency int
	// MemMB, when > 0, overrides the provisioned memory tier of every
	// platform task (the optimizer's memory knob); 0 keeps each
	// lowering provider's default.
	MemMB int
}

// New returns the workload with the default spec.
func New(workers int) *Workflow { return &Workflow{Workers: workers, Spec: DefaultSpec()} }

// Name implements core.Workflow.
func (w *Workflow) Name() string { return fmt.Sprintf("video-processing-%dw", w.Workers) }

// Impls implements core.Workflow (Table II's video column).
func (w *Workflow) Impls() []core.Impl {
	return []core.Impl{core.AWSLambda, core.AWSStep, core.AzFunc, core.AzDorch}
}

// ExtraImpls implements core.ExtendedWorkflow: every registered
// lowerer the IR supports beyond Table II's video column, discovered
// from the flow registry. The monolith's execution estimate keeps
// GCP-Func out — like Table II's video column, GCP offers only a
// subset of styles.
func (w *Workflow) ExtraImpls() []core.Impl {
	def, err := definition(w)
	if err != nil {
		return nil
	}
	return flow.Extras(def, w.Impls())
}

// Deploy implements core.Workflow by lowering the IR definition.
func (w *Workflow) Deploy(env *core.Env, impl core.Impl) (*core.Deployment, error) {
	if w.Workers < 1 {
		return nil, fmt.Errorf("videoproc: workers must be >= 1, got %d", w.Workers)
	}
	def, err := definition(w)
	if err != nil {
		return nil, err
	}
	flow.OverrideMemMB(def, w.MemMB)
	return flow.Deploy(env, def, impl)
}

const (
	videoKey = "videos/input"
	modelKey = "models/facedetect"
)

type chunkMsg struct {
	Run   int64  `json:"run"`
	Key   string `json:"key,omitempty"`
	Index int    `json:"index"`
}

func marshalChunk(m chunkMsg) []byte { b, _ := json.Marshal(m); return b }

// parseChunk decodes a chunk message. The form marshalChunk writes,
// {"run":R,"key":"K","index":I} with the key omitted when empty, is
// decoded directly; any other input goes to json.Unmarshal, so errors
// and unusual inputs get json.Unmarshal's result.
func parseChunk(data []byte) (chunkMsg, error) {
	if m, ok := parseCanonicalChunk(data); ok {
		return m, nil
	}
	var m chunkMsg
	err := json.Unmarshal(data, &m)
	return m, err
}

// parseCanonicalChunk decodes data if it is exactly in marshalChunk's
// form, and reports whether it was. Whatever it accepts is valid JSON
// that json.Unmarshal decodes to the same message.
func parseCanonicalChunk(data []byte) (m chunkMsg, ok bool) {
	b, ok := bytes.CutPrefix(data, []byte(`{"run":`))
	if !ok {
		return m, false
	}
	if m.Run, b, ok = cutJSONInt(b, 64); !ok {
		return m, false
	}
	if rest, found := bytes.CutPrefix(b, []byte(`,"key":`)); found {
		if m.Key, b, ok = cutJSONString(rest); !ok {
			return m, false
		}
	}
	if b, ok = bytes.CutPrefix(b, []byte(`,"index":`)); !ok {
		return m, false
	}
	index, b, ok := cutJSONInt(b, strconv.IntSize)
	if !ok || len(b) != 1 || b[0] != '}' {
		return m, false
	}
	m.Index = int(index)
	return m, true
}

// cutJSONInt decodes a JSON number with no fraction or exponent from
// the front of b, if it fits a signed integer of the given bits.
func cutJSONInt(b []byte, bits int) (int64, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	for n < len(b) && '0' <= b[n] && b[n] <= '9' {
		n++
	}
	if n == 0 || n > 19 || (b[0] == '0' && n > 1) {
		return 0, b, false
	}
	var u uint64
	for _, c := range b[:n] {
		u = u*10 + uint64(c-'0')
	}
	if limit := uint64(1) << (bits - 1); u > limit || (u == limit && !neg) {
		return 0, b, false
	}
	v := int64(u)
	if neg {
		v = -v
	}
	return v, b[n:], true
}

// cutJSONString decodes a JSON string from the front of b: valid UTF-8
// and the escapes json.Marshal writes, except surrogates.
func cutJSONString(b []byte) (string, []byte, bool) {
	if len(b) == 0 || b[0] != '"' {
		return "", b, false
	}
	b = b[1:]
	var buf []byte // the decoded string, once an escape needs one
	for i := 0; i < len(b); {
		c := b[i]
		switch {
		case c == '"':
			if buf == nil {
				return string(b[:i]), b[i+1:], true
			}
			return string(buf), b[i+1:], true
		case c < 0x20:
			return "", b, false
		case c == '\\':
			if buf == nil {
				buf = append(make([]byte, 0, len(b)), b[:i]...)
			}
			r, n := unescapeJSON(b[i:])
			if n == 0 {
				return "", b, false
			}
			buf = utf8.AppendRune(buf, r)
			i += n
		case c < utf8.RuneSelf:
			if buf != nil {
				buf = append(buf, c)
			}
			i++
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return "", b, false
			}
			if buf != nil {
				buf = append(buf, b[i:i+n]...)
			}
			i += n
		}
	}
	return "", b, false
}

// unescapeJSON decodes the escape at the front of b, which starts with
// a backslash, and returns its rune and length; 0 for an escape it
// does not take (invalid, or a UTF-16 surrogate).
func unescapeJSON(b []byte) (rune, int) {
	if len(b) < 2 {
		return 0, 0
	}
	if i := strings.IndexByte(`"\/bfnrt`, b[1]); i >= 0 {
		return rune("\"\\/\b\f\n\r\t"[i]), 2
	}
	if b[1] != 'u' || len(b) < 6 {
		return 0, 0
	}
	v, err := strconv.ParseUint(string(b[2:6]), 16, 16)
	if err != nil || utf16.IsSurrogate(rune(v)) {
		return 0, 0
	}
	return rune(v), 6
}

func chunkKey(run int64, i int) string  { return fmt.Sprintf("tmp/video%06d/chunk-%04d", run, i) }
func resultKey(run int64, i int) string { return fmt.Sprintf("tmp/video%06d/result-%04d", run, i) }

// chunkBytes returns the size of chunk i of n.
func (s Spec) chunkBytes(i, n int) int {
	base := s.TotalBytes / n
	if i == n-1 {
		return base + s.TotalBytes%n
	}
	return base
}

// chunkFrames returns the frame count of chunk i of n.
func (s Spec) chunkFrames(i, n int) int {
	base := s.Frames / n
	if i == n-1 {
		return base + s.Frames%n
	}
	return base
}

// splitCost is the CPU time of the chunking pass at the given speed.
func (s Spec) splitCost(speed float64) time.Duration {
	return time.Duration(float64(s.TotalBytes) / s.SplitBW / speed * float64(time.Second))
}

// mergeCost is the CPU time of the merge pass at the given speed.
func (s Spec) mergeCost(speed float64) time.Duration {
	return time.Duration(float64(s.TotalBytes) / s.MergeBW / speed * float64(time.Second))
}

// detectCost is the CPU time to run face detection on chunk i of n.
func (s Spec) detectCost(i, n int, speed float64) time.Duration {
	return time.Duration(float64(s.chunkFrames(i, n)) * float64(s.PerFrame) / speed)
}

// Consumed memory models (MB).
const (
	memSplit  = 700
	memDetect = 900
	memMerge  = 760
	memMono   = 980
)

// awsVideoMemoryMB is the paper's 2 GB configuration for video; GCP's
// tier matches it.
const awsVideoMemoryMB = 2048

// WorkerSchedDelays exposes the Azure host's per-work-item scheduling
// delays (Fig 14's metric) after a Dorch campaign.
func WorkerSchedDelays(env *core.Env) []time.Duration {
	return env.Azure().Host.Stats().SchedDelays
}

// finishScratchKey indexes the per-worker finish times in Env.Scratch.
const finishScratchKey = "videoproc.finishes"

// WorkerFinishTimes returns each detect worker's completion time
// relative to its run's start (Table III's per-worker metric), for the
// Az-Dorch deployment living in env.
func WorkerFinishTimes(env *core.Env) []time.Duration {
	v, ok := env.Scratch[finishScratchKey].(*[]time.Duration)
	if !ok {
		return nil
	}
	return append([]time.Duration(nil), (*v)...)
}
