package storage

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortColumn builds a one-column table of n values drawn by gen, every
// ninth row NULL when withNulls is set.
func sortColumn(typ Type, n int, withNulls bool, gen func(i int) Value) *Table {
	tbl := NewTable("t", MustSchema(ColumnDef{Name: "k", Type: typ}))
	for i := 0; i < n; i++ {
		if withNulls && i%9 == 4 {
			tbl.MustAppendRow(Null(typ))
			continue
		}
		tbl.MustAppendRow(gen(i))
	}
	return tbl
}

// refEnds cuts the boxed reference's order into runs: each ends where the
// next row's value is one Compare does not call equal, NULLs equal to one
// another.
func refEnds(tbl *Table, perm []int) []int {
	d := tbl.ColumnData(0)
	var ends []int
	for i := 1; i <= len(perm); i++ {
		if i == len(perm) || Compare(d.Value(perm[i-1]), d.Value(perm[i])) != 0 {
			ends = append(ends, i)
		}
	}
	return ends
}

// checkRuns holds a column's Order to SortedIndices: the same permutation,
// each run a maximal stretch of its order whose values Compare calls equal,
// and the NULLs, counted, the first run.
func checkRuns(t *testing.T, name string, tbl *Table) {
	t.Helper()
	want := tbl.SortedIndices(0)
	o := tbl.ColumnOrder(0)
	nulls := 0
	for r := 0; r < tbl.NumRows(); r++ {
		if tbl.ColumnData(0).Null(r) {
			nulls++
		}
	}
	if !slices.Equal(o.Perm, want) || !slices.Equal(o.Ends, refEnds(tbl, want)) || o.Ends == nil {
		t.Fatalf("%s:\n got %v ends %v\nwant %v ends %v", name, o.Perm, o.Ends, want, refEnds(tbl, want))
	}
	if o.Nulls != nulls || nulls > 0 && o.Ends[0] != nulls {
		t.Fatalf("%s: %d NULLs, the first run ends at %v; want %d NULLs as the first run", name, o.Nulls, o.Ends, nulls)
	}
}

// The typed kernel must return exactly the permutation of the boxed
// reference for every key type: NULLs first, duplicates in row order,
// negative numbers, -0.0 next to 0.0, the int64 and float64 extremes, keys
// differing only in a high byte, the empty string. Its runs are the
// reference's runs of Compare-equal values, the NULLs first and -0.0 with
// 0.0.
func TestSortPermutationMatchesSortedIndices(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ints := []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 1 << 40, -(1 << 40), 255, 256}
	floats := []float64{math.Inf(-1), math.Inf(1), math.Copysign(0, -1), 0, -1.5, 1.5,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	strs := []string{"", "a", "ab", "b", "apple", "\x00", "ä"}
	gens := map[string]struct {
		typ Type
		gen func(i int) Value
	}{
		"int64/small":   {TypeInt64, func(int) Value { return Int64(rng.Int63n(50) - 25) }},
		"int64/wide":    {TypeInt64, func(int) Value { return Int64(int64(rng.Uint64())) }},
		"int64/edges":   {TypeInt64, func(int) Value { return Int64(ints[rng.Intn(len(ints))]) }},
		"float64/small": {TypeFloat64, func(int) Value { return Float64(float64(rng.Intn(40)-20) / 4) }},
		"float64/wide":  {TypeFloat64, func(int) Value { return Float64(rng.NormFloat64() * 1e6) }},
		"float64/edges": {TypeFloat64, func(int) Value { return Float64(floats[rng.Intn(len(floats))]) }},
		"string":        {TypeString, func(int) Value { return String64(fmt.Sprintf("k%03d", rng.Intn(200))) }},
		"string/edges":  {TypeString, func(int) Value { return String64(strs[rng.Intn(len(strs))]) }},
		"bool":          {TypeBool, func(int) Value { return Bool(rng.Intn(2) == 0) }},
		"int64/sorted":  {TypeInt64, func(i int) Value { return Int64(int64(i)) }},
		"int64/one":     {TypeInt64, func(int) Value { return Int64(42) }},
	}
	for name, g := range gens {
		for _, n := range []int{0, 1, 2, 19, 700} {
			for _, withNulls := range []bool{false, true} {
				tbl := sortColumn(g.typ, n, withNulls, g.gen)
				if got, want := tbl.SortPermutation(0), tbl.SortedIndices(0); !slices.Equal(got, want) {
					t.Fatalf("%s n=%d nulls=%v:\n got %v\nwant %v", name, n, withNulls, got, want)
				}
				checkRuns(t, fmt.Sprintf("%s n=%d nulls=%v", name, n, withNulls), tbl)
			}
		}
	}
	zeros := sortColumn(TypeFloat64, 6, true, func(i int) Value { return Float64(math.Copysign(0, float64(i%2)-0.5)) })
	checkRuns(t, "-0.0 and 0.0", zeros)
	if o := zeros.ColumnOrder(0); len(o.Ends) != 2 {
		t.Fatalf("-0.0 and 0.0 after a NULL: runs ending at %v, want the NULL run and one more", o.Ends)
	}
}

var sortSink []int

// BenchmarkSortPermutation times the typed kernel against the boxed
// reference on the sizes the sort-merge benchmarks join.
func BenchmarkSortPermutation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{5000, 25000} {
		cols := []struct {
			name string
			tbl  *Table
		}{
			{"int64", sortColumn(TypeInt64, n, false, func(int) Value { return Int64(rng.Int63n(int64(n))) })},
			{"float64", sortColumn(TypeFloat64, n, false, func(int) Value { return Float64(rng.NormFloat64()) })},
			{"string", sortColumn(TypeString, n, false, func(int) Value { return String64(fmt.Sprintf("key-%06d", rng.Intn(n))) })},
		}
		for _, c := range cols {
			b.Run(fmt.Sprintf("%s/n=%d/typed", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sortSink = c.tbl.SortPermutation(0)
				}
			})
			b.Run(fmt.Sprintf("%s/n=%d/boxed", c.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					sortSink = c.tbl.SortedIndices(0)
				}
			})
		}
	}
}
