package workloads

import "strconv"

// AppendPadded appends v in decimal, zero-padded to width digits: the
// bytes fmt's "%0*d" gives for v and width, without fmt's reflection.
// The workloads build their per-run blob keys with it.
func AppendPadded(b []byte, v int64, width int) []byte {
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], v, 10)
	if v < 0 {
		b = append(b, '-')
		digits = digits[1:]
		width--
	}
	for n := len(digits); n < width; n++ {
		b = append(b, '0')
	}
	return append(b, digits...)
}
