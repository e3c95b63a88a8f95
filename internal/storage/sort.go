package storage

import (
	"math"
	"slices"
	"strings"
)

// SortPermutation returns the row indices of the table ordered by column
// col: NULLs first, then ascending keys, equal keys in row order. It is the
// permutation SortedIndices computes, read from the typed column storage
// without boxing a Value or reflecting over a swapper.
//
// The 8-byte types (int64, float64, and bool as 0/1) map to uint64 keys
// whose unsigned order is Compare's order and go through an LSD radix sort
// of the row indices, which is stable by construction and skips every byte
// position the keys do not differ in. On 25k int64 keys it takes about a
// twentieth of SortedIndices' time (BenchmarkSortPermutation); a pdqsort
// over (key,row) pairs, the other candidate when the kernel was chosen,
// measured three times slower than the radix passes and holds more. Strings
// sort the row indices by comparing the column in place, ties by row. At
// its peak the kernel holds the permutation, its radix double and the
// derived keys: 24 bytes per row.
//
// A NaN key has no place in an order: compareFloat calls it equal to every
// float, so "sorted" is whatever sequence of comparisons the algorithm
// happens to make. A float64 column holding a NaN therefore skips the radix
// pass and returns SortedIndices' permutation itself, so the two agree even
// there (TestSortPermutationNaN). A sort-merge join over such a column pairs
// a NaN with whatever run the merge meets, and the result means nothing.
//
// On a view the permutation is built once per base column and row count
// and shared by every later call (Memo). The returned slice may be shared:
// it must not be modified.
func (t *Table) SortPermutation(col int) []int {
	return t.Memo(col, permKey{}, func() any { return t.sortPermutation(col) }).(sortedRows).perm
}

// ColumnOrder is SortPermutation off the base column's memo, for a view or
// for the loaded table itself, without making a view. ordered is false for
// a float64 column holding a NaN, whose permutation orders nothing.
func (t *Table) ColumnOrder(col int) (perm []int, ordered bool) {
	s := t.col(col).sharedMemo().get(t.rows, permKey{}, func() any { return t.sortPermutation(col) }).(sortedRows)
	return s.perm, s.ordered
}

// permKey is the memo key of a column's sort permutation, a sortedRows.
type permKey struct{}

type sortedRows struct {
	perm    []int
	ordered bool
}

func (t *Table) sortPermutation(col int) sortedRows {
	c := t.col(col)
	perm := make([]int, 0, t.rows)
	if c.nulls != nil {
		for r, null := range c.nulls {
			if null {
				perm = append(perm, r)
			}
		}
	}
	nulls := len(perm)
	for r := 0; r < t.rows; r++ {
		if c.nulls == nil || !c.nulls[r] {
			perm = append(perm, r)
		}
	}
	rows := perm[nulls:]
	if c.typ == TypeString {
		slices.SortFunc(rows, func(a, b int) int {
			if d := strings.Compare(c.strs[a], c.strs[b]); d != 0 {
				return d
			}
			return a - b
		})
		return sortedRows{perm, true}
	}
	keys := make([]uint64, 0, t.rows)
	switch c.typ {
	case TypeInt64:
		for _, k := range c.ints {
			keys = append(keys, uint64(k)^(1<<63))
		}
	case TypeFloat64:
		for _, f := range c.floats {
			if f != f {
				return sortedRows{t.SortedIndices(col), false}
			}
			keys = append(keys, floatSortKey(f))
		}
	case TypeBool:
		for _, b := range c.bools {
			if b {
				keys = append(keys, 1)
			} else {
				keys = append(keys, 0)
			}
		}
	}
	radixSortRows(rows, keys)
	return sortedRows{perm, true}
}

// floatSortKey maps a non-NaN float64 to a uint64 whose unsigned order is
// compareFloat's order: negatives flip every bit, the rest set the sign
// bit, and -0.0 takes 0.0's key because the two compare equal.
func floatSortKey(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	bits := math.Float64bits(f)
	if bits>>63 != 0 {
		return ^bits
	}
	return bits | 1<<63
}

// radixSortRows stably sorts rows, indices into keys, by key: one counting
// pass per byte position, least significant first, leaving out the
// positions where every key holds the same byte.
func radixSortRows(rows []int, keys []uint64) {
	if len(rows) < 2 {
		return
	}
	var counts [8][256]int
	for _, r := range rows {
		k := keys[r]
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	src, dst := rows, make([]int, len(rows))
	for b := range counts {
		count := &counts[b]
		if count[byte(keys[src[0]]>>(8*b))] == len(rows) {
			continue
		}
		pos := 0
		for i, n := range count {
			count[i] = pos
			pos += n
		}
		shift := 8 * b
		for _, r := range src {
			d := byte(keys[r] >> shift)
			dst[count[d]] = r
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &rows[0] { // an odd number of passes ends in the double
		copy(rows, src)
	}
}
