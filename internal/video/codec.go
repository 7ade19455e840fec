package video

import (
	"encoding/binary"
	"fmt"
)

// This file implements a simple lossless run-length codec for videos,
// giving the workflows realistic byte payloads to move through queues
// and blob storage (the paper's 100 MB input video and per-chunk
// transfers).

// codecMagic identifies encoded streams.
const codecMagic = 0x53564944 // "SVID"

// Encode serializes the video: header, then per-frame RLE of (count,
// value) byte pairs.
func Encode(v *Video) []byte {
	return AppendEncode(make([]byte, 0, len(v.Frames)*v.W*v.H/4+64), v)
}

// AppendEncode appends the encoded stream to dst — which may be a
// recycled buffer with spare capacity — and returns the extended slice.
func AppendEncode(dst []byte, v *Video) []byte {
	buf := dst
	var hdr [20]byte
	binary.LittleEndian.PutUint32(hdr[0:], codecMagic)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(v.W))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(v.H))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(v.FPS))
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(v.Frames)))
	buf = append(buf, hdr[:]...)

	for _, f := range v.Frames {
		// Frame payload length placeholder.
		lenPos := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		start := len(buf)
		i := 0
		for i < len(f.Pix) {
			v0 := f.Pix[i]
			run := 1
			for i+run < len(f.Pix) && f.Pix[i+run] == v0 && run < 255 {
				run++
			}
			buf = append(buf, byte(run), v0)
			i += run
		}
		binary.LittleEndian.PutUint32(buf[lenPos:], uint32(len(buf)-start))
	}
	return buf
}

// Decode parses an Encode stream.
func Decode(data []byte) (*Video, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("video: truncated header")
	}
	if binary.LittleEndian.Uint32(data[0:]) != codecMagic {
		return nil, fmt.Errorf("video: bad magic")
	}
	w := int(binary.LittleEndian.Uint32(data[4:]))
	h := int(binary.LittleEndian.Uint32(data[8:]))
	fps := int(binary.LittleEndian.Uint32(data[12:]))
	n := int(binary.LittleEndian.Uint32(data[16:]))
	if w <= 0 || h <= 0 || n < 0 || w*h > 1<<28 {
		return nil, fmt.Errorf("video: implausible dimensions %dx%d x%d", w, h, n)
	}
	v := &Video{W: w, H: h, FPS: fps}
	pos := 20
	for fi := 0; fi < n; fi++ {
		if pos+4 > len(data) {
			return nil, fmt.Errorf("video: truncated at frame %d", fi)
		}
		flen := int(binary.LittleEndian.Uint32(data[pos:]))
		pos += 4
		if pos+flen > len(data) {
			return nil, fmt.Errorf("video: frame %d overruns buffer", fi)
		}
		// Pooled frame: the RLE fill below writes every pixel (enforced
		// by the out != len check), so stale pool contents never leak.
		fr := getFrame(w, h)
		out := 0
		for p := pos; p < pos+flen; p += 2 {
			if p+1 >= len(data) {
				return nil, fmt.Errorf("video: frame %d ragged RLE", fi)
			}
			run := int(data[p])
			val := data[p+1]
			if out+run > len(fr.Pix) {
				return nil, fmt.Errorf("video: frame %d RLE overflow", fi)
			}
			for k := 0; k < run; k++ {
				fr.Pix[out+k] = val
			}
			out += run
		}
		if out != len(fr.Pix) {
			return nil, fmt.Errorf("video: frame %d decoded %d of %d pixels", fi, out, len(fr.Pix))
		}
		pos += flen
		v.Frames = append(v.Frames, fr)
	}
	return v, nil
}
