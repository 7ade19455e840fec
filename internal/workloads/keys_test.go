package workloads

import (
	"fmt"
	"math"
	"testing"
)

// TestAppendPaddedMatchesSprintf checks AppendPadded against fmt's
// "%0*d" at every width the blob keys use: at 0, at the edge of each
// width, past it, and for negative and extreme values.
func TestAppendPaddedMatchesSprintf(t *testing.T) {
	values := []int64{0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10000, 99999, 100000, 999999, 1000000,
		-1, -9, -10, -999, -1000, -99999, -100000, math.MaxInt64, math.MinInt64}
	for _, width := range []int{2, 4, 6} {
		for _, v := range values {
			got := string(AppendPadded([]byte("tmp/"), v, width))
			if want := fmt.Sprintf("tmp/%0*d", width, v); got != want {
				t.Errorf("AppendPadded(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
}
