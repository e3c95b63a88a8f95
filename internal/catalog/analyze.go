package catalog

import (
	"fmt"
	"math"

	"repro/internal/faultinject"
	"repro/internal/storage"
)

// PointAnalyze is the fault-injection probe hit when ANALYZE starts, so
// tests can simulate a statistics-collection failure during catalog load.
const PointAnalyze = "catalog.analyze"

// AnalyzeOptions configures statistics collection.
type AnalyzeOptions struct {
	// HistogramBuckets is the bucket budget of the equi-depth histogram
	// built per numeric column; 0 disables histogram construction (pure
	// uniformity assumption, as the paper's base configuration).
	HistogramBuckets int
}

// Analyze derives a data table's exact statistics (and optional histograms)
// from one walk per column over its sort permutation, registers them in the
// catalog, and remembers the backing table so the executor can run plans
// against it. The permutation is the radix sort memoized on the base column
// (storage.Table.ColumnOrder), which the first sort-merge join and the first
// filtered scan over the table then find built.
func (c *Catalog) Analyze(tbl *storage.Table, opts AnalyzeOptions) (*TableStats, error) {
	if tbl == nil {
		return nil, fmt.Errorf("catalog: Analyze(nil)")
	}
	if err := faultinject.Check(PointAnalyze); err != nil {
		return nil, fmt.Errorf("catalog: analyze %s: %w", tbl.Name(), err)
	}
	schema := tbl.Schema()
	ts := &TableStats{
		Name:     tbl.Name(),
		Card:     float64(tbl.NumRows()),
		RowWidth: schema.RowWidth(),
		Columns:  make(map[string]*ColumnStats, schema.NumColumns()),
	}
	for ci := 0; ci < schema.NumColumns(); ci++ {
		def := schema.Column(ci)
		cs, err := analyzeColumn(tbl, ci, opts.HistogramBuckets)
		if err != nil {
			return nil, fmt.Errorf("catalog: analyze %s.%s: %w", tbl.Name(), def.Name, err)
		}
		ts.Columns[key(def.Name)] = cs
	}
	if err := c.AddTable(ts); err != nil {
		return nil, err
	}
	c.SetData(tbl.Name(), tbl)
	return ts, nil
}

// analyzeColumn walks column ci's sort permutation once. The NULLs come
// first; each run of equal values after them is one distinct value; Min and
// Max are the first rows of the first and last runs, the values a scan in
// row order keeps on a tie such as -0 and 0; and the histogram's buckets
// are cut from the same order.
func analyzeColumn(tbl *storage.Table, ci, buckets int) (*ColumnStats, error) {
	def, d := tbl.Schema().Column(ci), tbl.ColumnData(ci)
	perm, ordered := tbl.ColumnOrder(ci)
	nulls := 0
	for nulls < len(perm) && d.Null(perm[nulls]) {
		nulls++
	}
	cs := &ColumnStats{Name: def.Name, Type: def.Type, NullCount: float64(nulls)}
	rows := perm[nulls:]
	var n, last int
	var at func(int) float64
	switch d.Type {
	case storage.TypeInt64:
		n, last = runs(d.Ints, rows)
		at = func(i int) float64 { return float64(d.Ints[rows[i]]) }
	case storage.TypeFloat64:
		if !ordered {
			return nanColumn(cs, d, buckets)
		}
		n, last = runs(d.Floats, rows)
		at = func(i int) float64 { return d.Floats[rows[i]] }
	case storage.TypeString:
		n, _ = runs(d.Strs, rows)
	case storage.TypeBool:
		n, _ = runs(d.Bools, rows)
	}
	cs.Distinct = float64(n)
	if at != nil && n > 0 {
		cs.HasRange, cs.Min, cs.Max = true, at(0), at(last)
		if buckets > 0 {
			cs.Hist = equiDepth(len(rows), buckets, at)
		}
	}
	return cs, nil
}

// runs counts the runs of equal values in vals read in rows order, and
// returns where the last one starts.
func runs[T comparable](vals []T, rows []int) (n, last int) {
	for i, r := range rows {
		if i == 0 || vals[r] != vals[rows[i-1]] {
			n, last = n+1, i
		}
	}
	return n, last
}

// nanColumn scans a float64 column holding a NaN, whose sort permutation is
// in no order (storage.Table.SortPermutation), in row order: Distinct counts
// bit patterns, -0 as 0, so each NaN payload is a value; Min and Max ignore
// NaN; and there is no histogram.
func nanColumn(cs *ColumnStats, d storage.ColumnData, buckets int) (*ColumnStats, error) {
	if buckets > 0 {
		return nil, errNaN
	}
	seen := make(map[uint64]bool)
	for r, f := range d.Floats {
		if d.Null(r) {
			continue
		}
		seen[math.Float64bits(f+0)] = true // -0 + 0 is 0
		switch {
		case f != f:
		case !cs.HasRange:
			cs.HasRange, cs.Min, cs.Max = true, f, f
		case f < cs.Min:
			cs.Min = f
		case f > cs.Max:
			cs.Max = f
		}
	}
	cs.Distinct = float64(len(seen))
	return cs, nil
}
