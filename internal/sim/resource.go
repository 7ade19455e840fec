package sim

// Resource is a counted semaphore with FIFO waiters, used to model
// capacity-limited facilities (container slots, concurrency caps).
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	waiters  []*Proc
}

// NewResource returns a resource with the given capacity. Capacity must
// be positive.
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: NewResource capacity must be positive")
	}
	return &Resource{k: k, capacity: capacity}
}

// Capacity returns the total number of slots.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held slots.
func (r *Resource) InUse() int { return r.inUse }

// Available returns the number of free slots.
func (r *Resource) Available() int { return r.capacity - r.inUse }

// Waiting returns the number of queued acquirers.
func (r *Resource) Waiting() int { return len(r.waiters) }

// SetCapacity grows or shrinks the resource. Growing wakes waiters;
// shrinking below inUse lets current holders finish (capacity is
// enforced on future acquisitions).
func (r *Resource) SetCapacity(n int) {
	if n <= 0 {
		panic("sim: SetCapacity must be positive")
	}
	r.capacity = n
	r.dispatch()
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

// TryAcquire takes a slot if one is free without blocking.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.inUse++
		return true
	}
	return false
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

// Store is an unbounded FIFO of items with blocking Get, used to model
// message channels inside the simulation (not billed; see cloud/queue
// for the billed storage-queue model).
type Store[T any] struct {
	k       *Kernel
	items   []T
	waiters []*Proc
}

// NewStore returns an empty store bound to k.
func NewStore[T any](k *Kernel) *Store[T] {
	return &Store[T]{k: k}
}

// Len returns the number of queued items.
func (s *Store[T]) Len() int { return len(s.items) }

// Put appends an item and wakes the oldest waiting getter, if any.
// Safe from kernel or process context.
func (s *Store[T]) Put(v T) {
	s.items = append(s.items, v)
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.wake(0)
	}
}

// Get blocks the calling process until an item is available and removes
// it. Items are delivered in FIFO order; competing getters are served in
// arrival order.
func (s *Store[T]) Get(p *Proc) T {
	for len(s.items) == 0 {
		s.waiters = append(s.waiters, p)
		p.Park()
	}
	v := s.items[0]
	s.items = s.items[1:]
	return v
}

// TryGet removes and returns the head item without blocking.
func (s *Store[T]) TryGet() (T, bool) {
	var zero T
	if len(s.items) == 0 {
		return zero, false
	}
	v := s.items[0]
	s.items = s.items[1:]
	return v, true
}
