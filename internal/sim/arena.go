package sim

// Arena is a chunked, free-list-backed record pool for simulation
// state that churns at event rate — invocation records, in-flight
// work items. Records are addressed by stable int32 handles (chunk
// storage never moves), so schedulable state can reference a record
// without holding a pointer: a Timers event carries the handle in its
// int64 argument, with no closure. Steady-state allocation cost is
// therefore bounded by the peak number of live records, not the total
// processed.
//
// An Arena belongs to one kernel's goroutine like everything else in
// this package; it does not lock.
type Arena[T any] struct {
	chunks [][]T
	free   []int32
	next   int32 // first never-used handle
}

const (
	arenaChunkBits = 10
	arenaChunkSize = 1 << arenaChunkBits
	arenaChunkMask = arenaChunkSize - 1
)

// Alloc returns a handle and pointer to a record. The record's fields
// are whatever the previous user of the slot left behind — callers
// reset what they use.
func (a *Arena[T]) Alloc() (int32, *T) {
	if n := len(a.free); n > 0 {
		h := a.free[n-1]
		a.free = a.free[:n-1]
		return h, a.At(h)
	}
	h := a.next
	a.next++
	if int(h>>arenaChunkBits) == len(a.chunks) {
		a.chunks = append(a.chunks, make([]T, arenaChunkSize))
	}
	return h, &a.chunks[h>>arenaChunkBits][h&arenaChunkMask]
}

// At returns the record for a handle obtained from Alloc. The pointer
// is stable for the life of the arena.
func (a *Arena[T]) At(h int32) *T {
	return &a.chunks[h>>arenaChunkBits][h&arenaChunkMask]
}

// Free returns a record's slot to the pool. The record is not zeroed
// (see Alloc); the handle must not be used again until Alloc hands it
// back out.
func (a *Arena[T]) Free(h int32) {
	a.free = append(a.free, h)
}
