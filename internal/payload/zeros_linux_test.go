//go:build linux

package payload_test

import (
	"runtime/metrics"
	"testing"

	"statebench/internal/payload"
)

// TestZerosArenaOffHeap pins that a placeholder arena lives outside the
// Go heap: a 128 MiB Zeros grows the heap's object bytes by less than
// 1 MiB and still reads as zeros on every page.
func TestZerosArenaOffHeap(t *testing.T) {
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	heap := func() int64 {
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	const n = 128 << 20
	before := heap()
	z := payload.Zeros(n)
	if grew := heap() - before; grew >= 1<<20 {
		t.Fatalf("Zeros(%d) grew heap objects by %d bytes", n, grew)
	}
	if len(z) != n || cap(z) != n {
		t.Fatalf("len/cap = %d/%d, want %d", len(z), cap(z), n)
	}
	for i := 0; i < n; i += 4096 {
		if z[i] != 0 {
			t.Fatalf("byte %d = %d, want 0", i, z[i])
		}
	}
}
