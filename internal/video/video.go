// Package video implements the video-processing workload's substrate
// from scratch: synthetic grayscale video with planted "faces" (bright
// elliptical blobs on textured background), a run-length frame codec,
// chunking/merging for the paper's split → parallel-detect → merge
// pipeline, and an integral-image sliding-window face detector standing
// in for the paper's OpenCV deep-learning model.
package video

import (
	"fmt"
	"sync"

	"statebench/internal/sim"
)

// Frame is one grayscale frame in row-major order.
type Frame struct {
	W, H int
	Pix  []uint8
}

// NewFrame allocates a zeroed frame.
func NewFrame(w, h int) *Frame {
	return &Frame{W: w, H: h, Pix: make([]uint8, w*h)}
}

// framePool recycles frame headers and pixel planes between decode or
// clone and Release: the chunked pipeline decodes, scans, and discards
// thousands of frames per campaign.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// getFrame returns a pooled frame whose pixel contents are undefined;
// every caller must overwrite the full plane before the frame is read.
func getFrame(w, h int) *Frame {
	f := framePool.Get().(*Frame)
	f.W, f.H = w, h
	if cap(f.Pix) < w*h {
		f.Pix = make([]uint8, w*h)
	} else {
		f.Pix = f.Pix[:w*h]
	}
	return f
}

// Release returns the video's frames to the frame pool and empties the
// video. Call it only when no alias of the frames (or their Pix slices)
// survives — typically on a decoded chunk after detection finishes.
func (v *Video) Release() {
	for i, f := range v.Frames {
		v.Frames[i] = nil
		framePool.Put(f)
	}
	v.Frames = v.Frames[:0]
}

// Set writes the pixel at (x, y).
func (f *Frame) Set(x, y int, v uint8) { f.Pix[y*f.W+x] = v }

// Clone returns a deep copy. The copy draws from the frame pool, so a
// later Release of the owning video recycles it.
func (f *Frame) Clone() *Frame {
	cp := getFrame(f.W, f.H)
	copy(cp.Pix, f.Pix)
	return cp
}

// Video is a frame sequence with a nominal frame rate.
type Video struct {
	W, H   int
	FPS    int
	Frames []*Frame
}

// Rect is an axis-aligned box (face ground truth / detection).
type Rect struct {
	X, Y, W, H int
}

// IoU returns intersection-over-union of two rects.
func (r Rect) IoU(o Rect) float64 {
	x1 := max(r.X, o.X)
	y1 := max(r.Y, o.Y)
	x2 := min(r.X+r.W, o.X+o.W)
	y2 := min(r.Y+r.H, o.Y+o.H)
	if x2 <= x1 || y2 <= y1 {
		return 0
	}
	inter := float64((x2 - x1) * (y2 - y1))
	union := float64(r.W*r.H+o.W*o.H) - inter
	return inter / union
}

// GenerateOptions configures synthetic video generation.
type GenerateOptions struct {
	W, H      int
	FPS       int
	NumFrames int
	// FacesPerFrame plants this many moving faces.
	FacesPerFrame int
	Seed          uint64
}

// DefaultGenerateOptions is a small clip suitable for tests and the
// benchmark chunks.
func DefaultGenerateOptions() GenerateOptions {
	return GenerateOptions{W: 160, H: 120, FPS: 24, NumFrames: 48, FacesPerFrame: 3, Seed: 1}
}

// Generate builds a synthetic video and its ground-truth face boxes
// (one slice per frame). Faces are bright filled ellipses with darker
// eye spots, drifting over a textured noisy background — enough
// structure for a brightness-contrast detector to find them and for
// false positives to be plausible.
func Generate(opt GenerateOptions) (*Video, [][]Rect) {
	if opt.W <= 0 || opt.H <= 0 || opt.NumFrames <= 0 {
		panic(fmt.Sprintf("video: invalid options %+v", opt))
	}
	r := sim.NewRNG(opt.Seed)
	v := &Video{W: opt.W, H: opt.H, FPS: opt.FPS}
	truth := make([][]Rect, opt.NumFrames)

	type face struct {
		x, y   float64
		vx, vy float64
		radius int
	}
	faces := make([]face, opt.FacesPerFrame)
	for i := range faces {
		faces[i] = face{
			x:      r.Uniform(20, float64(opt.W-20)),
			y:      r.Uniform(20, float64(opt.H-20)),
			vx:     r.Uniform(-1.5, 1.5),
			vy:     r.Uniform(-1.5, 1.5),
			radius: 7 + r.Intn(6),
		}
	}

	for fi := 0; fi < opt.NumFrames; fi++ {
		fr := NewFrame(opt.W, opt.H)
		// Textured background: low-intensity noise with a soft gradient.
		for y := 0; y < opt.H; y++ {
			for x := 0; x < opt.W; x++ {
				base := 30 + (x+y)%17 + int(r.Uint64()%25)
				fr.Set(x, y, uint8(base))
			}
		}
		for i := range faces {
			f := &faces[i]
			f.x += f.vx
			f.y += f.vy
			if f.x < float64(f.radius) || f.x > float64(opt.W-f.radius) {
				f.vx = -f.vx
				f.x += 2 * f.vx
			}
			if f.y < float64(f.radius) || f.y > float64(opt.H-f.radius) {
				f.vy = -f.vy
				f.y += 2 * f.vy
			}
			drawFace(fr, int(f.x), int(f.y), f.radius)
			truth[fi] = append(truth[fi], Rect{
				X: int(f.x) - f.radius, Y: int(f.y) - f.radius,
				W: 2 * f.radius, H: 2 * f.radius,
			})
		}
		v.Frames = append(v.Frames, fr)
	}
	return v, truth
}

// drawFace renders a bright ellipse with two dark eye spots.
func drawFace(fr *Frame, cx, cy, radius int) {
	r2 := radius * radius
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx*dx+dy*dy > r2 {
				continue
			}
			x, y := cx+dx, cy+dy
			if x < 0 || x >= fr.W || y < 0 || y >= fr.H {
				continue
			}
			fr.Set(x, y, 220)
		}
	}
	eye := radius / 3
	for _, ex := range []int{cx - radius/2, cx + radius/2} {
		for dy := -eye / 2; dy <= eye/2; dy++ {
			for dx := -eye / 2; dx <= eye/2; dx++ {
				x, y := ex+dx, cy-radius/3+dy
				if x < 0 || x >= fr.W || y < 0 || y >= fr.H {
					continue
				}
				fr.Set(x, y, 70)
			}
		}
	}
}

// Split cuts the video into n contiguous chunks (the paper's first
// pipeline stage). Chunks cover all frames; the last chunk absorbs the
// remainder. n must be in [1, NumFrames].
func (v *Video) Split(n int) ([]*Video, error) {
	if n < 1 || n > len(v.Frames) {
		return nil, fmt.Errorf("video: cannot split %d frames into %d chunks", len(v.Frames), n)
	}
	chunks := make([]*Video, n)
	per := len(v.Frames) / n
	extra := len(v.Frames) % n
	pos := 0
	for i := 0; i < n; i++ {
		cnt := per
		if i < extra {
			cnt++
		}
		c := &Video{W: v.W, H: v.H, FPS: v.FPS}
		for j := 0; j < cnt; j++ {
			c.Frames = append(c.Frames, v.Frames[pos].Clone())
			pos++
		}
		chunks[i] = c
	}
	return chunks, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
