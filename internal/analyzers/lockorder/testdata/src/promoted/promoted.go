// Package promoted pins that a mutex reached through an embedded struct is
// the embedded struct's lock: the level declared on books.mu governs
// h.mu, whichever harness embeds the books.
package promoted

import "sync"

type books struct {
	//lockorder:level 10
	mu sync.Mutex
	//lockorder:level 70
	logMu sync.Mutex
}

type harness struct {
	books
	n int
}

// inOrder takes the promoted locks in hierarchy order.
func (h *harness) inOrder() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.logMu.Lock() // want "potential deadlock: lock-acquisition cycle promoted.books.mu -> promoted.books.logMu -> promoted.books.mu"
	defer h.logMu.Unlock()
	h.n++
}

// inverted holds the log lock while taking the state lock.
func (h *harness) inverted() {
	h.logMu.Lock()
	defer h.logMu.Unlock()
	h.mu.Lock() // want `lock order violation: promoted.books.logMu \(level 70\) is held while acquiring promoted.books.mu \(level 10\)`
	defer h.mu.Unlock()
	h.n--
}
