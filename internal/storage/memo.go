package storage

import (
	"slices"
	"sync/atomic"
)

// memo holds the read-only structures joins derive from every row of one
// base column: its sort permutation (SortPermutation), the executor's
// hash-join build tables, one per key representation, and GROUP BY's groups
// of the column in output order. The base column owns
// it and every view of the column shares it (View), so every query,
// snapshot and goroutine reading the table reuses one build.
//
// It is the one part of a loaded table written after loading. Entries are
// published copy-on-write through an atomic compare-and-swap and never
// modified afterwards, so readers take no lock; two goroutines that miss at
// once both build, and the later one adopts the entry the earlier one
// published.
type memo struct {
	set atomic.Pointer[memoSet]
}

// memoSet is one published generation of a memo: entries built over the
// column's first rows rows. A view of another length replaces it rather
// than read it.
type memoSet struct {
	rows    int
	entries []memoEntry
}

type memoEntry struct{ key, val any }

func (s *memoSet) lookup(rows int, key any) (any, bool) {
	if s == nil || s.rows != rows {
		return nil, false
	}
	for _, e := range s.entries {
		if e.key == key {
			return e.val, true
		}
	}
	return nil, false
}

// get returns the entry for key over the first rows rows, building and
// publishing it on a miss.
func (m *memo) get(rows int, key any, build func() any) any {
	cur := m.set.Load()
	if v, ok := cur.lookup(rows, key); ok {
		return v
	}
	v := build()
	for {
		next := &memoSet{rows: rows}
		if cur != nil && cur.rows == rows {
			next.entries = slices.Clone(cur.entries)
		}
		next.entries = append(next.entries, memoEntry{key, v})
		if m.set.CompareAndSwap(cur, next) {
			return v
		}
		cur = m.set.Load()
		if w, ok := cur.lookup(rows, key); ok {
			return w
		}
	}
}

// sharedMemo returns the column's memo, creating it on first use.
func (c *column) sharedMemo() *memo {
	if m := c.memo.Load(); m != nil {
		return m
	}
	c.memo.CompareAndSwap(nil, &memo{})
	return c.memo.Load()
}

// Memo returns what build derives from every row of column col of a view.
// One value is published per base column, key and row count, and every view
// of the same base column at the same length gets it, whichever query,
// snapshot or goroutine asked first. key names the structure and must be
// comparable; callers outside this package use a key type of their own.
// Any other table is not memoized: build runs on every call.
//
// The value may be shared across goroutines and must not be modified.
func (t *Table) Memo(col int, key any, build func() any) any {
	if !t.view {
		return build()
	}
	return t.col(col).memo.Load().get(t.rows, key, build)
}
