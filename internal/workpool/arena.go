// Arena pooling for the vectorized executor's batch-local scratch buffers.
//
// The columnar scan and join kernels need short-lived slices — selection
// vectors, pair-index buffers — once per batch, on the goroutine of whichever
// query is running. Allocating them fresh per batch would make the batch
// engine allocation-bound, so they are recycled here, shared by every query
// in the process.
package workpool

import "sync"

// Arena recycles []T scratch buffers across batches and goroutines.
// Get returns a zero-length slice with at least the requested capacity; Put
// recycles it. An Arena is safe for concurrent use; construct with NewArena.
type Arena[T any] struct {
	pool sync.Pool
}

// NewArena returns an empty arena for []T buffers.
func NewArena[T any]() *Arena[T] {
	a := &Arena[T]{}
	a.pool.New = func() any { return new([]T) }
	return a
}

// Get returns a zero-length buffer with capacity ≥ n; callers append into it.
func (a *Arena[T]) Get(n int) []T {
	s := *(a.pool.Get().(*[]T))
	if cap(s) < n {
		s = make([]T, 0, n)
	}
	return s[:0]
}

// Put recycles a buffer obtained from Get (or any []T the caller no longer
// needs). Capacity-zero buffers are dropped. The caller must not use s after
// Put — the next Get may hand it to another goroutine.
func (a *Arena[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	a.pool.Put(&s)
}
