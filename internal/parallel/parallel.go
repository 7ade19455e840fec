// Package parallel is the fan-out layer: a bounded worker pool for
// running independent tasks concurrently while keeping every
// observable output deterministic. Its tasks are simulation campaigns
// and, one level down, the pieces of a payload kernel: the forest's
// trees and k-NN's query chunks.
//
// Every campaign in this repository builds a fresh, fully isolated
// core.Env — its own sim.Kernel, its own seeded RNG streams — and
// derives its seed from the caller's options alone, never from
// execution order. That makes campaigns embarrassingly parallel:
// the pool only decides *when* a campaign runs, never *what* it
// computes. Results are slotted by task index and errors are reported
// in task order, so a run with any worker count is byte-identical to
// the sequential run. Campaign pools take their size from the caller's
// Workers option. Payload kernels take Workers(0), every core: the
// payload engine computes each of their results once, and every
// campaign that needs it waits for that one computation.
//
// The one rule (see the sim package's concurrency contract): a kernel
// and everything attached to it stays on the goroutine that runs it.
// Tasks must not share mutable state; anything they return is handed
// back through the index-slotted result slice.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: n > 0 is used as-is; 0 or
// negative means one worker per available CPU (GOMAXPROCS).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// ForEach runs task(0..n-1) on at most Workers(workers) goroutines and
// blocks until all started tasks finish. With one worker, tasks run
// inline in index order and the first error short-circuits the rest —
// exactly the pre-pool sequential loop. With more workers every task
// runs to completion and the error of the lowest-numbered failing task
// is returned ("first error wins"), so the reported error does not
// depend on scheduling order.
func ForEach(workers, n int, task func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := task(i); err != nil {
				return err
			}
		}
		return nil
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = task(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(0..n-1) through ForEach and returns the results slotted
// by index. On error the results are discarded and the lowest-index
// error is returned.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
