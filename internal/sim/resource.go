package sim

// Resource is a counted semaphore with FIFO waiters, used to model
// capacity-limited facilities (container slots, concurrency caps).
type Resource struct {
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource returns a resource with the given capacity. Capacity must
// be positive.
func NewResource(capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: NewResource capacity must be positive")
	}
	return &Resource{capacity: capacity}
}

// Acquire blocks the calling process until a slot is free, then holds it.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.Park()
}

// Release frees a slot and wakes the oldest waiter, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release without Acquire")
	}
	r.inUse--
	r.dispatch()
}

// dispatch hands free slots to queued waiters in FIFO order.
func (r *Resource) dispatch() {
	for len(r.waiters) > 0 && r.inUse < r.capacity {
		w := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.inUse++
		w.wake(0)
	}
}
