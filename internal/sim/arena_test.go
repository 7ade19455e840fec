package sim

import "testing"

// TestArenaRecycle checks handle stability and free-list reuse,
// including the no-zeroing contract that keeps slot-lifetime closures
// alive across recycling.
func TestArenaRecycle(t *testing.T) {
	type rec struct {
		n    int
		fire func()
	}
	var a Arena[rec]
	fired := 0
	h1, r1 := a.Alloc()
	r1.n = 7
	r1.fire = func() { fired += a.At(h1).n }
	h2, r2 := a.Alloc()
	r2.n = 100
	a.Free(h1)
	h3, r3 := a.Alloc()
	if h3 != h1 {
		t.Fatalf("free-list reuse: got handle %d, want %d", h3, h1)
	}
	if r3.fire == nil {
		t.Fatal("slot closure wiped on recycle")
	}
	r3.n = 5
	r3.fire()
	if fired != 5 {
		t.Fatalf("recycled closure read %d, want 5", fired)
	}
	a.Free(h2)
	a.Free(h3)
	// Cross a chunk boundary; pointers must stay stable.
	ptrs := make(map[int32]*rec)
	for i := 0; i < 3*arenaChunkSize; i++ {
		h, r := a.Alloc()
		ptrs[h] = r
	}
	for h, p := range ptrs {
		if a.At(h) != p {
			t.Fatalf("handle %d moved", h)
		}
	}
}
