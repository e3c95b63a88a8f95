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

// The typed kernel must return exactly the permutation of the boxed
// reference for every key type: NULLs first, duplicates in row order,
// negative numbers, -0.0 next to 0.0, the int64 and float64 extremes, keys
// differing only in a high byte, the empty string.
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
			}
		}
	}
}

// compareFloat calls NaN equal to everything, so no order exists; the
// kernel then repeats the reference's own comparison sequence and lands on
// the same permutation (see SortPermutation).
func TestSortPermutationNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 25, 400} {
		for _, withNulls := range []bool{false, true} {
			tbl := sortColumn(TypeFloat64, n, withNulls, func(i int) Value {
				if rng.Intn(6) == 0 {
					return Float64(math.NaN())
				}
				return Float64(float64(rng.Intn(30)))
			})
			if got, want := tbl.SortPermutation(0), tbl.SortedIndices(0); !slices.Equal(got, want) {
				t.Fatalf("n=%d nulls=%v:\n got %v\nwant %v", n, withNulls, got, want)
			}
		}
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
