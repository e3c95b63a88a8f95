package storage

import (
	"slices"
	"sync"
	"testing"
)

// Every view of a base column shares one sort permutation per row count,
// built once; a view of another length never reads it, and a table that is
// not a view is never memoized.
func TestMemoSharedByViewsOfOneLength(t *testing.T) {
	base := sortColumn(TypeInt64, 300, true, func(i int) Value { return Int64(int64((i * 37) % 101)) })
	view := func() *Table {
		v, err := base.View("v", base.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := view(), view()
	pa, pb := a.SortPermutation(0), b.SortPermutation(0)
	if !slices.Equal(pa, base.SortedIndices(0)) {
		t.Fatal("the memoized permutation is not the column's order")
	}
	if &pa[0] != &pb[0] {
		t.Fatal("two views of one base column built two permutations")
	}
	if p := base.SortPermutation(0); &p[0] == &pa[0] {
		t.Fatal("the base table, which still accepts appends, read the views' memo")
	}

	base.MustAppendRow(Int64(-5))
	longer := view()
	pl := longer.SortPermutation(0)
	if !slices.Equal(pl, base.SortedIndices(0)) {
		t.Fatalf("a view of %d rows got a permutation of %d", longer.NumRows(), len(pl))
	}
	if p := a.SortPermutation(0); !slices.Equal(p, pa) || len(p) != a.NumRows() {
		t.Fatal("the shorter view lost its permutation's order after the base grew")
	}

	calls := 0
	build := func() any { calls++; return calls }
	longer.Memo(0, "k", build)
	view().Memo(0, "k", build)
	longer.Memo(0, "other", build)
	base.Memo(0, "k", build)
	if calls != 3 {
		t.Fatalf("build ran %d times, want 3 (once per key on views, every call on the base)", calls)
	}
}

// Goroutines that take a fresh table's first views at once all get the
// right permutation, and every one of them, like every later reader, the
// one copy that was published (run with -race).
func TestMemoConcurrentFirstUse(t *testing.T) {
	base := sortColumn(TypeFloat64, 2000, true, func(i int) Value { return Float64(float64((i * 7919) % 503)) })
	want := base.SortedIndices(0)
	perms := make([][]int, 8)
	var wg sync.WaitGroup
	for g := range perms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := base.View("v", base.Schema(), nil)
			if err == nil {
				perms[g] = v.SortPermutation(0)
			}
		}()
	}
	wg.Wait()
	for g, p := range perms {
		if !slices.Equal(p, want) {
			t.Fatalf("goroutine %d got a wrong permutation", g)
		}
	}
	v, err := base.View("v", base.Schema(), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := v.SortPermutation(0)
	for g, q := range perms {
		if &q[0] != &p[0] {
			t.Fatalf("goroutine %d kept a permutation other than the published one", g)
		}
	}
}
