// videoanalytics runs the paper's video pipeline with REAL data end to
// end: it generates a synthetic video with planted faces, deploys the
// split → parallel-face-detect → merge workflow on the simulated AWS
// platform (Step Functions Map state over Lambda workers), executes the
// actual detector inside the simulated functions, and verifies the
// detections against ground truth.
//
//	go run ./examples/videoanalytics [-workers 8]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"statebench/internal/aws/sfn"
	"statebench/internal/cloud/faas"
	"statebench/internal/core"
	"statebench/internal/sim"
	"statebench/internal/video"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "videoanalytics:", err)
		os.Exit(1)
	}
}

// run executes the pipeline with command-line args and writes the
// report to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("videoanalytics", flag.ExitOnError)
	workers := fs.Int("workers", 8, "parallel face-detection workers")
	fs.Parse(args)

	// Real input: 96 frames of 160x120 with 3 moving faces.
	opt := video.DefaultGenerateOptions()
	opt.NumFrames = 96
	clip, truth := video.Generate(opt)
	encoded := video.Encode(clip)
	model := video.DefaultModel(1 << 20) // ~1 MB, like the paper's
	modelBytes, err := video.EncodeModel(model)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "input video: %d frames, %d KB encoded; detector model %d KB\n",
		len(clip.Frames), len(encoded)/1024, len(modelBytes)/1024)

	env := core.NewEnv(3)
	s3 := env.AWS().S3
	s3.Preload("videos/input", encoded)
	s3.Preload("models/face", modelBytes)

	// Split: decode, chunk, store each chunk.
	env.AWS().Lambda.MustRegister(faas.Config{
		Name: "split", MemoryMB: 2048, ConsumedMemMB: 700,
		Handler: func(ctx *faas.Context, payload []byte) ([]byte, error) {
			p := ctx.Proc()
			data, err := s3.Get(p, "videos/input")
			if err != nil {
				return nil, err
			}
			v, err := video.Decode(data)
			if err != nil {
				return nil, err
			}
			chunks, err := v.Split(*workers)
			if err != nil {
				return nil, err
			}
			v.Release() // chunks hold deep copies
			keys := make([]any, len(chunks))
			var buf []byte // Put copies, so one encode buffer serves all chunks
			for i, c := range chunks {
				key := fmt.Sprintf("chunks/%03d", i)
				buf = video.AppendEncode(buf[:0], c)
				s3.Put(p, key, buf)
				c.Release()
				keys[i] = key
			}
			return json.Marshal(map[string]any{"chunks": keys})
		},
	})

	// Detect: fetch chunk + model, run the REAL detector, store results.
	env.AWS().Lambda.MustRegister(faas.Config{
		Name: "detect", MemoryMB: 2048, ConsumedMemMB: 900,
		Handler: func(ctx *faas.Context, payload []byte) ([]byte, error) {
			var key string
			if err := json.Unmarshal(payload, &key); err != nil {
				return nil, err
			}
			p := ctx.Proc()
			data, err := s3.Get(p, key)
			if err != nil {
				return nil, err
			}
			mBytes, err := s3.Get(p, "models/face")
			if err != nil {
				return nil, err
			}
			m, err := video.DecodeModel(mBytes)
			if err != nil {
				return nil, err
			}
			chunk, err := video.Decode(data)
			if err != nil {
				return nil, err
			}
			dets := m.DetectVideo(chunk)
			chunk.Release()
			out, err := json.Marshal(dets)
			if err != nil {
				return nil, err
			}
			resultKey := key + ".dets"
			s3.Put(p, resultKey, out)
			return json.Marshal(resultKey)
		},
	})

	// Merge: gather per-chunk detections in order.
	env.AWS().Lambda.MustRegister(faas.Config{
		Name: "merge", MemoryMB: 2048, ConsumedMemMB: 760,
		Handler: func(ctx *faas.Context, payload []byte) ([]byte, error) {
			var in struct {
				Results []string `json:"results"`
			}
			if err := json.Unmarshal(payload, &in); err != nil {
				return nil, err
			}
			p := ctx.Proc()
			var all [][]video.Detection
			for _, key := range in.Results {
				data, err := s3.Get(p, key)
				if err != nil {
					return nil, err
				}
				var dets [][]video.Detection
				if err := json.Unmarshal(data, &dets); err != nil {
					return nil, err
				}
				all = append(all, dets...)
			}
			return json.Marshal(all)
		},
	})

	machine := &sfn.StateMachine{
		StartAt: "Split",
		States: map[string]*sfn.State{
			"Split": {Type: sfn.TypeTask, Resource: "split", Next: "Detect"},
			"Detect": {Type: sfn.TypeMap, ItemsPath: "$.chunks", ResultPath: "$.results", Next: "Merge",
				Iterator: &sfn.StateMachine{StartAt: "D", States: map[string]*sfn.State{
					"D": {Type: sfn.TypeTask, Resource: "detect", End: true},
				}}},
			"Merge": {Type: sfn.TypeTask, Resource: "merge", End: true},
		},
	}
	if err := env.AWS().SFN.CreateStateMachine("video", machine); err != nil {
		return err
	}

	var exec *sfn.Execution
	env.K.Spawn("client", func(p *sim.Proc) {
		defer env.Stop()
		exec, err = env.AWS().SFN.StartExecution(p, "video", map[string]any{})
	})
	env.K.Run()
	if err != nil {
		return err
	}
	if exec.Err != nil {
		return exec.Err
	}

	// Validate against ground truth.
	outJSON, _ := json.Marshal(exec.Output)
	var dets [][]video.Detection
	if err := json.Unmarshal(outJSON, &dets); err != nil {
		return err
	}
	precision, recall := video.Evaluate(dets, truth, 0.3)
	fmt.Fprintf(w, "workflow: %d transitions, simulated e2e %v\n", exec.Transitions, exec.Duration())
	fmt.Fprintf(w, "detections across %d frames: precision %.2f, recall %.2f (IoU 0.3)\n",
		len(dets), precision, recall)
	if recall < 0.6 {
		return fmt.Errorf("recall %.2f too low — pipeline broken", recall)
	}
	fmt.Fprintln(w, "parallel chunked detection matches the paper's Fig 5 pipeline.")
	return nil
}
