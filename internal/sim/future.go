package sim

import (
	"slices"
	"time"
)

// Future is a single-assignment result that processes can await.
// Complete may be called from kernel or process context; waiters are
// woken through scheduled events so the one-at-a-time discipline holds.
type Future[T any] struct {
	k       *Kernel
	done    bool
	val     T
	err     error
	waiters []*Proc
	cbs     []completion[T]
}

// completion is one registered completion action: a callback when fn
// is non-nil, otherwise a timed waiter (AwaitTimeout) to be woken
// through the kernel's conditional-unpark event — the closure-free
// path. The two live in one ordered list so completion order between
// callbacks and timed waiters is exactly registration order. A timed
// waiter whose timeout wins removes its entry.
type completion[T any] struct {
	fn  func(T, error)
	p   *Proc
	gen uint64
}

// NewFuture returns an incomplete future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] {
	return &Future[T]{k: k}
}

// Done reports whether the future has been completed.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the completed value and error. It is only meaningful
// after Done reports true (or Await returns).
func (f *Future[T]) Value() (T, error) { return f.val, f.err }

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
	for _, c := range f.cbs {
		if c.fn != nil {
			cb := c.fn
			f.k.After(0, func() { cb(v, err) })
		} else {
			f.k.pushCondUnpark(0, c.p, c.gen)
		}
	}
	f.cbs = nil
}

// Fail is shorthand for completing with the zero value and err.
func (f *Future[T]) Fail(err error) {
	var zero T
	f.Complete(zero, err)
}

// Await blocks the calling process until the future completes, then
// returns its value and error.
func (f *Future[T]) Await(p *Proc) (T, error) {
	if !f.done {
		f.waiters = append(f.waiters, p)
		p.park()
	}
	return f.val, f.err
}

// AwaitTimeout is like Await but gives up after d, returning ok=false if
// the timeout fired first. The future remains awaitable afterwards.
func (f *Future[T]) AwaitTimeout(p *Proc, d time.Duration) (v T, err error, ok bool) {
	if f.done {
		return f.val, f.err, true
	}
	p.awaitGen++
	gen := p.awaitGen
	f.cbs = append(f.cbs, completion[T]{p: p, gen: gen})
	p.k.pushCondUnpark(d, p, gen)
	p.park()
	if f.done {
		return f.val, f.err, true
	}
	// The timeout won: withdraw the entry, or Complete would schedule a
	// wake-up that finds the generation stale and does nothing. Idle
	// pollers re-await one future many times; the entry is usually last.
	for i := len(f.cbs) - 1; i >= 0; i-- {
		if f.cbs[i].p == p && f.cbs[i].gen == gen {
			f.cbs = slices.Delete(f.cbs, i, i+1)
			break
		}
	}
	return v, nil, false
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
	f.cbs = append(f.cbs, completion[T]{fn: cb})
}

// CompletedFuture returns a future already resolved with v and err.
func CompletedFuture[T any](k *Kernel, v T, err error) *Future[T] {
	f := NewFuture[T](k)
	f.Complete(v, err)
	return f
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

// AwaitAny waits until at least one future in fs completes and returns
// the index of the first completed future (lowest index wins ties).
func AwaitAny[T any](p *Proc, fs []*Future[T]) int {
	for i, f := range fs {
		if f.Done() {
			return i
		}
	}
	woken := false
	for _, f := range fs {
		f.OnComplete(func(T, error) {
			if !woken {
				woken = true
				p.wake(0)
			}
		})
	}
	p.park()
	for i, f := range fs {
		if f.Done() {
			return i
		}
	}
	panic("sim: AwaitAny woke with no completed future")
}
