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
	"encoding/json"
	"fmt"
	"time"

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

func parseChunk(data []byte) (chunkMsg, error) {
	var m chunkMsg
	err := json.Unmarshal(data, &m)
	return m, err
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
	return env.Azure.Host.Stats().SchedDelays
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
