package sim

// Future is a single-assignment result that processes can await.
// Complete may be called from kernel or process context; waiters are
// woken through scheduled events so the one-at-a-time discipline holds.
type Future[T any] struct {
	k       *Kernel
	done    bool
	val     T
	err     error
	waiters []*Proc
	cbs     []func(T, error)
}

// NewFuture returns an incomplete future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Complete resolves the future and wakes all waiters at the current
// virtual time. Completing twice panics: a future is single-assignment.
func (f *Future[T]) Complete(v T, err error) {
	if f.done {
		panic("sim: Future completed twice")
	}
	f.done = true
	f.val, f.err = v, err
	for _, w := range f.waiters {
		w.wake(0)
	}
	f.waiters = nil
	for _, cb := range f.cbs {
		f.k.After(0, func() { cb(v, err) })
	}
	f.cbs = nil
}

// Await blocks the calling process until the future completes, then
// returns its value and error.
func (f *Future[T]) Await(p *Proc) (T, error) {
	if !f.done {
		f.waiters = append(f.waiters, p)
		p.Park()
	}
	return f.val, f.err
}

// OnComplete registers cb to run (as a scheduled event) when the future
// completes. If the future is already complete, cb is scheduled at the
// current time.
func (f *Future[T]) OnComplete(cb func(T, error)) {
	if f.done {
		v, err := f.val, f.err
		f.k.After(0, func() { cb(v, err) })
		return
	}
	f.cbs = append(f.cbs, cb)
}

// AwaitAll waits for every future in fs and returns their values in
// order. The first non-nil error (by slice position) is returned, but
// all futures are still awaited, mirroring fan-in semantics where the
// barrier waits for every branch.
func AwaitAll[T any](p *Proc, fs []*Future[T]) ([]T, error) {
	out := make([]T, len(fs))
	var firstErr error
	for i, f := range fs {
		v, err := f.Await(p)
		out[i] = v
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return out, firstErr
}
