//go:build linux

package payload

import "syscall"

// newArena maps n bytes of private anonymous memory read-only. Every
// page reads from the kernel's shared zero page, so the arena costs no
// resident memory and stays off the Go heap, where a 100 MB arena would
// raise the GC's heap goal and be cleared whenever it landed on
// recycled pages, making peak RSS depend on GC timing. Falls back to
// the heap if the mapping fails.
func newArena(n int) []byte {
	b, err := syscall.Mmap(-1, 0, n, syscall.PROT_READ, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return make([]byte, n)
	}
	return b
}
