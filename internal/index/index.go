// Package index provides an ordered secondary index over one column of a
// storage table: a sorted (key, row) array answering equality lookups in
// O(log n). It backs the optional index-nested-loops join
// method — the access-path dimension of the classic System R design space
// that the paper's experiment deliberately held fixed ("the access methods
// and join methods did not differ between the QEPs"); the reproduction
// offers it as an ablation.
package index

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Index is an immutable ordered index over one column of one table.
type Index struct {
	table  *storage.Table
	column int
	// order holds row indices sorted by key (NULL keys excluded: equality
	// lookups can never match them).
	order []int
}

// Build constructs an index over the named column. NULL keys are excluded.
func Build(tbl *storage.Table, column string) (*Index, error) {
	if tbl == nil {
		return nil, fmt.Errorf("index: nil table")
	}
	ci := tbl.Schema().ColumnIndex(column)
	if ci < 0 {
		return nil, fmt.Errorf("index: table %s has no column %q", tbl.Name(), column)
	}
	order := make([]int, 0, tbl.NumRows())
	for r := 0; r < tbl.NumRows(); r++ {
		if !tbl.Value(r, ci).IsNull() {
			order = append(order, r)
		}
	}
	sort.SliceStable(order, func(a, b int) bool {
		return storage.Compare(tbl.Value(order[a], ci), tbl.Value(order[b], ci)) < 0
	})
	return &Index{table: tbl, column: ci, order: order}, nil
}

// Table returns the indexed table.
func (ix *Index) Table() *storage.Table { return ix.table }

// Column returns the indexed column's ordinal.
func (ix *Index) Column() int { return ix.column }

// Len returns the number of indexed (non-NULL) entries.
func (ix *Index) Len() int { return len(ix.order) }

// key returns the key of the i-th index entry.
func (ix *Index) key(i int) storage.Value {
	return ix.table.Value(ix.order[i], ix.column)
}

// Lookup returns the row indices whose key equals v, in index order.
// A NULL probe matches nothing.
func (ix *Index) Lookup(v storage.Value) []int {
	if v.IsNull() || len(ix.order) == 0 {
		return nil
	}
	lo := sort.Search(len(ix.order), func(i int) bool {
		return storage.Compare(ix.key(i), v) >= 0
	})
	hi := lo
	for hi < len(ix.order) && storage.Compare(ix.key(hi), v) == 0 {
		hi++
	}
	if lo == hi {
		return nil
	}
	out := make([]int, hi-lo)
	copy(out, ix.order[lo:hi])
	return out
}
