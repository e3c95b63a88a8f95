package catalog

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/storage"
)

// mapReference is the ANALYZE that the sort-permutation walk replaced: one
// scan per column in row order that boxes every value, counts distinct
// values as Value.Key() strings in a map, keeps Min and Max by comparison,
// and collects the numeric values for NewEquiDepthHistogram to sort.
func mapReference(tbl *storage.Table, ci int) (*ColumnStats, []float64) {
	def := tbl.Schema().Column(ci)
	cs := &ColumnStats{Name: def.Name, Type: def.Type}
	seen := make(map[string]struct{})
	var numeric []float64
	isNumeric := def.Type == storage.TypeInt64 || def.Type == storage.TypeFloat64
	for r := 0; r < tbl.NumRows(); r++ {
		v := tbl.Value(r, ci)
		if v.IsNull() {
			cs.NullCount++
			continue
		}
		seen[v.Key()] = struct{}{}
		if isNumeric {
			f := v.AsFloat()
			if !cs.HasRange {
				cs.HasRange = true
				cs.Min, cs.Max = f, f
			} else {
				if f < cs.Min {
					cs.Min = f
				}
				if f > cs.Max {
					cs.Max = f
				}
			}
			numeric = append(numeric, f)
		}
	}
	cs.Distinct = float64(len(seen))
	return cs, numeric
}

// analyzePools are the values a random column of each type draws from: few
// enough to repeat, with the edges of each type's order. A column draws from
// a prefix, so -0 and 0 come first: then they are often both the minimum or
// both the maximum, and the one kept must be the first in row order.
var analyzePools = map[storage.Type][]storage.Value{
	storage.TypeInt64: values(storage.Int64, math.MinInt64, math.MaxInt64, math.MinInt64+1, math.MaxInt64-1,
		1<<53, 1<<53+1, 1<<53+2, -(1<<53)-1, -(1 << 53), 1<<62+1, 1<<62+3, -1, 0, 1, 2, 3, 7, 1000),
	storage.TypeFloat64: values(storage.Float64, math.Copysign(0, -1), 0, -1.5, math.Inf(-1), math.Inf(1),
		0.25, 1, 1e300, -1e-300, 3, 1<<53, 1<<53+2),
	storage.TypeString: values(storage.String64, "", "a", "ab", "b", "\x00", "zz", "é", "B"),
	storage.TypeBool:   values(storage.Bool, false, true),
}

func values[T any](box func(T) storage.Value, vs ...T) []storage.Value {
	out := make([]storage.Value, len(vs))
	for i, v := range vs {
		out[i] = box(v)
	}
	return out
}

// ANALYZE's walk over each column's sort permutation gives the statistics
// the map-and-Key() scan gave, on random tables of every type with and
// without NULLs, an all-NULL column and an empty table, and its histograms
// are NewEquiDepthHistogram's over the same values, bucket for bucket.
func TestAnalyzeMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for trial := 0; trial < 400; trial++ {
		typ := []storage.Type{storage.TypeInt64, storage.TypeFloat64, storage.TypeString, storage.TypeBool}[trial%4]
		pool := analyzePools[typ][:1+rng.Intn(len(analyzePools[typ]))]
		rows := []int{0, 1, 2, 5, 40, 300}[rng.Intn(6)]
		nullRate := []float64{0, 0, 0.2, 1}[rng.Intn(4)]
		tbl := storage.NewTable("t", storage.MustSchema(storage.ColumnDef{Name: "c", Type: typ}))
		for r := 0; r < rows; r++ {
			v := pool[rng.Intn(len(pool))]
			if rng.Float64() < nullRate {
				v = storage.Null(typ)
			}
			tbl.MustAppendRow(v)
		}
		name := fmt.Sprintf("trial %d (%s, %d rows, null rate %g)", trial, typ, rows, nullRate)
		want, numeric := mapReference(tbl, 0)
		for _, buckets := range []int{0, 1, 7, 32, 48} {
			ts, err := New().Analyze(tbl, AnalyzeOptions{HistogramBuckets: buckets})
			if err != nil {
				t.Fatalf("%s, %d buckets: %v", name, buckets, err)
			}
			got := ts.Column("c")
			if got.NullCount != want.NullCount || got.Distinct != want.Distinct || got.HasRange != want.HasRange ||
				math.Float64bits(got.Min) != math.Float64bits(want.Min) || math.Float64bits(got.Max) != math.Float64bits(want.Max) {
				t.Fatalf("%s, %d buckets: got %+v, want %+v", name, buckets, got, want)
			}
			if buckets == 0 || len(numeric) == 0 {
				if got.Hist != nil {
					t.Fatalf("%s, %d buckets: histogram %v, want none", name, buckets, got.Hist)
				}
				continue
			}
			wantHist, err := NewEquiDepthHistogram(numeric, buckets)
			if err != nil {
				t.Fatal(err)
			}
			if got.Hist == nil || got.Hist.Kind != wantHist.Kind || got.Hist.Total != wantHist.Total ||
				!slices.Equal(got.Hist.Buckets, wantHist.Buckets) {
				t.Fatalf("%s, %d buckets: histogram\n%v\nwant\n%v", name, buckets, got.Hist, wantHist)
			}
		}
	}
}

// ANALYZE refuses a float64 column holding a NaN, whatever its payload or
// sign, with NULLs or without, with or without histograms, and registers
// neither statistics nor data for the table: no loaded column holds a NaN.
func TestAnalyzeRefusesNaN(t *testing.T) {
	nans := map[string]float64{
		"quiet NaN":    math.NaN(),
		"payload NaN":  math.Float64frombits(0x7ff8000000000042),
		"negative NaN": math.Float64frombits(0xfff8000000000000),
	}
	for name, nan := range nans {
		for _, withNulls := range []bool{false, true} {
			for _, buckets := range []int{0, 32} {
				tbl := storage.NewTable("t", storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64},
					storage.ColumnDef{Name: "f", Type: storage.TypeFloat64}))
				for r, f := range []float64{1.5, nan, -2, 1.5} {
					v := storage.Float64(f)
					if withNulls && r == 2 {
						v = storage.Null(storage.TypeFloat64)
					}
					tbl.MustAppendRow(storage.Int64(int64(r)), v)
				}
				cat := New()
				label := fmt.Sprintf("%s, NULLs %v, %d buckets", name, withNulls, buckets)
				if _, err := cat.Analyze(tbl, AnalyzeOptions{HistogramBuckets: buckets}); !errors.Is(err, errNaN) {
					t.Errorf("%s: Analyze returned %v, want errNaN", label, err)
				}
				if cat.Table("t") != nil || cat.Data("t") != nil {
					t.Errorf("%s: a refused table registered statistics or data", label)
				}
			}
		}
	}
}

// twoColumnTable is the 50,000-row, two-int64-column table ANALYZE is
// measured on: a uniform key over 5,000 values and a row-order payload.
func twoColumnTable() *storage.Table {
	tbl := storage.NewTable("t", storage.MustSchema(
		storage.ColumnDef{Name: "k", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "v", Type: storage.TypeInt64}))
	rng := rand.New(rand.NewSource(1))
	for r := 0; r < 50000; r++ {
		tbl.MustAppendRow(storage.Int64(rng.Int63n(5000)), storage.Int64(int64(r)))
	}
	return tbl
}

// ANALYZE of a freshly loaded 50,000-row, two-int64-column table, sort
// permutations included, allocates a bounded number of times, not once per
// row (the map-and-Key() scan allocated about 200,000 times); 32-bucket histograms
// add at most 16 more.
func TestAnalyzeAllocationCeiling(t *testing.T) {
	for _, c := range []struct{ buckets, ceiling int }{{0, 64}, {32, 64 + 16}} {
		const runs = 3
		tables := make([]*storage.Table, runs+1) // AllocsPerRun calls once more to warm up
		for i := range tables {
			tables[i] = twoColumnTable()
		}
		cat, next := New(), 0
		allocs := testing.AllocsPerRun(runs, func() {
			if _, err := cat.Analyze(tables[next], AnalyzeOptions{HistogramBuckets: c.buckets}); err != nil {
				t.Fatal(err)
			}
			next++
		})
		t.Logf("%d buckets: %.0f allocations", c.buckets, allocs)
		if allocs > float64(c.ceiling) {
			t.Errorf("%d buckets: Analyze allocated %.0f times, want at most %d", c.buckets, allocs, c.ceiling)
		}
	}
}

// BenchmarkAnalyze times ANALYZE of a freshly loaded 50,000-row,
// two-int64-column table, its sort permutations included, without and with
// 32-bucket histograms.
func BenchmarkAnalyze(b *testing.B) {
	for _, buckets := range []int{0, 32} {
		b.Run(fmt.Sprintf("buckets=%d", buckets), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				tbl := twoColumnTable()
				b.StartTimer()
				if _, err := New().Analyze(tbl, AnalyzeOptions{HistogramBuckets: buckets}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
