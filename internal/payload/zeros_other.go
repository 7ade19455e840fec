//go:build !linux

package payload

// newArena allocates the zero arena on the Go heap.
func newArena(n int) []byte { return make([]byte, n) }
