package video

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"slices"
	"sync"
)

// DetectorModel is the "pretrained model" of the paper's workload: the
// detector's parameters plus a weight blob that pads the serialized
// size to ~1 MB so fetching it from blob storage costs what the paper's
// model fetch cost.
type DetectorModel struct {
	// WindowSizes are the face diameters scanned.
	WindowSizes []int
	// Contrast is the minimum center-minus-surround brightness gap.
	Contrast float64
	// MinBrightness gates the window's mean intensity.
	MinBrightness float64
	// Stride is the scan step in pixels.
	Stride int
	// NMSIoU suppresses overlapping detections above this overlap.
	NMSIoU float64
	// Weights pads the model to a realistic size (unused by the
	// classic pipeline, standing in for CNN weights).
	Weights []byte
}

// DefaultModel returns a detector tuned for Generate's faces, padded to
// about targetBytes serialized size (0 keeps it minimal).
func DefaultModel(targetBytes int) *DetectorModel {
	m := &DetectorModel{
		WindowSizes:   []int{14, 18, 22, 26},
		Contrast:      50,
		MinBrightness: 150,
		Stride:        2,
		NMSIoU:        0.12,
	}
	if targetBytes > 0 {
		m.Weights = make([]byte, targetBytes)
		for i := range m.Weights {
			m.Weights[i] = byte(i * 131)
		}
	}
	return m
}

// EncodeModel serializes the model (gob).
func EncodeModel(m *DetectorModel) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeModel deserializes EncodeModel output.
func DecodeModel(data []byte) (*DetectorModel, error) {
	var m DetectorModel
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// integralImage computes the summed-area table of a frame with an extra
// zero row/column, so rectangle sums are O(1).
type integralImage struct {
	w, h int
	sum  []int64
}

// reset recomputes the table for f in place, reusing the sum buffer.
// Only the border row/column needs explicit zeroing on reuse — the
// interior is fully overwritten.
func (ii *integralImage) reset(f *Frame) {
	ii.w, ii.h = f.W+1, f.H+1
	n := ii.w * ii.h
	if cap(ii.sum) < n {
		ii.sum = make([]int64, n)
	} else {
		ii.sum = ii.sum[:n]
		for x := 0; x < ii.w; x++ {
			ii.sum[x] = 0
		}
		for y := 1; y < ii.h; y++ {
			ii.sum[y*ii.w] = 0
		}
	}
	for y := 1; y <= f.H; y++ {
		var rowSum int64
		for x := 1; x <= f.W; x++ {
			rowSum += int64(f.Pix[(y-1)*f.W+(x-1)])
			ii.sum[y*ii.w+x] = ii.sum[(y-1)*ii.w+x] + rowSum
		}
	}
}

// detectScratch holds one frame's transient detection buffers: the
// summed-area table and the pre-NMS candidate list. Pooled because the
// detector runs per frame per chunk per worker — the dominant transient
// allocation of the real video payload.
type detectScratch struct {
	ii    integralImage
	cands []Detection
}

var detectPool = sync.Pool{New: func() any { return new(detectScratch) }}

// rectSum returns the pixel sum over [x, x+w) x [y, y+h).
func (ii *integralImage) rectSum(x, y, w, h int) int64 {
	x2, y2 := x+w, y+h
	return ii.sum[y2*ii.w+x2] - ii.sum[y*ii.w+x2] - ii.sum[y2*ii.w+x] + ii.sum[y*ii.w+x]
}

// Detection is one scored face candidate.
type Detection struct {
	Box   Rect
	Score float64
}

// DetectFrame scans one frame at every window size, scoring windows by
// center brightness minus surround brightness, then applies greedy
// non-maximum suppression.
func (m *DetectorModel) DetectFrame(f *Frame) []Detection {
	scratch := detectPool.Get().(*detectScratch)
	defer detectPool.Put(scratch)
	ii := &scratch.ii
	ii.reset(f)
	stride := m.Stride
	if stride < 1 {
		stride = 1
	}
	cands := scratch.cands[:0]
	defer func() { scratch.cands = cands[:0] }()
	for _, win := range m.WindowSizes {
		if win >= f.W || win >= f.H {
			continue
		}
		border := win / 4
		if border < 1 {
			border = 1
		}
		outer := win + 2*border
		for y := 0; y+outer < f.H; y += stride {
			for x := 0; x+outer < f.W; x += stride {
				inner := ii.rectSum(x+border, y+border, win, win)
				total := ii.rectSum(x, y, outer, outer)
				innerArea := float64(win * win)
				outerArea := float64(outer*outer) - innerArea
				innerMean := float64(inner) / innerArea
				surroundMean := float64(total-inner) / outerArea
				if innerMean < m.MinBrightness {
					continue
				}
				gap := innerMean - surroundMean
				if gap < m.Contrast {
					continue
				}
				cands = append(cands, Detection{
					Box:   Rect{X: x + border, Y: y + border, W: win, H: win},
					Score: gap,
				})
			}
		}
	}
	return nms(cands, m.NMSIoU)
}

// nms applies greedy non-maximum suppression by descending score.
func nms(cands []Detection, iou float64) []Detection {
	slices.SortFunc(cands, func(a, b Detection) int { return cmp.Compare(b.Score, a.Score) })
	var kept []Detection
	for _, c := range cands {
		ok := true
		for _, k := range kept {
			if c.Box.IoU(k.Box) > iou {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, c)
		}
	}
	return kept
}

// DetectVideo runs DetectFrame over every frame.
func (m *DetectorModel) DetectVideo(v *Video) [][]Detection {
	out := make([][]Detection, len(v.Frames))
	for i, f := range v.Frames {
		out[i] = m.DetectFrame(f)
	}
	return out
}

// Evaluate scores detections against ground truth: a detection matches
// a truth box when IoU exceeds matchIoU; each truth box matches at most
// one detection. Returns precision and recall over the whole video.
func Evaluate(dets [][]Detection, truth [][]Rect, matchIoU float64) (precision, recall float64) {
	var tp, fp, fn int
	for i := range truth {
		var frameDets []Detection
		if i < len(dets) {
			frameDets = dets[i]
		}
		used := make([]bool, len(frameDets))
		for _, tr := range truth[i] {
			matched := false
			for j, d := range frameDets {
				if !used[j] && d.Box.IoU(tr) >= matchIoU {
					used[j] = true
					matched = true
					break
				}
			}
			if matched {
				tp++
			} else {
				fn++
			}
		}
		for j := range frameDets {
			if !used[j] {
				fp++
			}
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return precision, recall
}
