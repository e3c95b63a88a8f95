// Package workpool holds what concurrent queries share: the sanctioned
// goroutine spawners and the scratch-buffer arena.
//
// A query runs on the goroutine that issued it; nothing in the planning or
// execution path starts another. The goroutines the system does start —
// background mutators, fault schedulers, soak and chaos clients, the
// call-with-timeout helpers of the CLIs — go through Go or Async, which
// contain a panic as a *governor.InternalError instead of crashing the
// process; the nakedgoroutine analyzer rejects a raw go statement anywhere
// else.
package workpool

import (
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/governor"
)

// contain runs f, turning a panic into a *governor.InternalError.
func contain(f func() error) (err error) {
	defer func() {
		if pval := recover(); pval != nil {
			err = governor.NewInternal(pval, debug.Stack())
		}
	}()
	return f()
}

// Go spawns f on a new goroutine registered with wg. A panic in f is
// recovered into a *governor.InternalError and delivered to onErr, as is
// any error f returns; onErr may be nil when the caller only needs the
// panic containment. Go is the sanctioned primitive for long-lived
// background goroutines (mutators, fault schedulers, soak workers) —
// spawning them raw would bypass the panic→ErrInternal mapping the serving
// layer's taxonomy promises.
func Go(wg *sync.WaitGroup, onErr func(error), f func() error) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := contain(f); err != nil && onErr != nil {
			onErr(err)
		}
	}()
}

// Async runs f on a new goroutine and returns a buffered channel that
// receives f's result exactly once; a panic in f arrives as a
// *governor.InternalError rather than crashing the process. It is the
// sanctioned shape for call-with-timeout helpers:
//
//	done := workpool.Async(f)
//	select {
//	case err := <-done:
//		...
//	case <-ctx.Done():
//		...
//	}
func Async(f func() error) <-chan error {
	done := make(chan error, 1)
	go func() {
		done <- contain(f)
	}()
	return done
}

// WithTimeout runs f under a wall-clock bound, reporting an overrun as the
// typed budget error the governor produces; d ≤ 0 runs f unbounded on the
// calling goroutine. On timeout f's goroutine is abandoned, so this is for
// a main that exits right afterwards.
func WithTimeout(d time.Duration, f func() error) error {
	if d <= 0 {
		return f()
	}
	start := time.Now()
	select {
	case err := <-Async(f):
		return err
	case <-time.After(d):
		return &governor.BudgetError{
			Resource: "wall-clock", Limit: int64(d), Used: int64(time.Since(start)),
		}
	}
}
