package catalog

import (
	"fmt"
	"math"
	"slices"

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
// from each column's runs of equal keys, registers them in the catalog, and
// remembers the backing table so the executor can run plans against it. The
// runs are the sort permutation and its run ends memoized on the base
// column (storage.Table.ColumnOrder), which the first join, GROUP BY and
// filtered scan over the table then find built. It refuses a float64
// column holding a NaN, which Compare calls equal to every value, before
// registering anything (errNaN), so no loaded column holds one.
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

// analyzeColumn reads column ci's runs (storage.Table.ColumnOrder): the
// NULLs are the first run, if any; each later run is one distinct value;
// Min and Max are the first rows of the first and last runs, the values a
// scan in row order keeps on a tie such as -0 and 0; and the histogram's
// buckets are cut from the same order.
func analyzeColumn(tbl *storage.Table, ci, buckets int) (*ColumnStats, error) {
	def, d := tbl.Schema().Column(ci), tbl.ColumnData(ci)
	if slices.ContainsFunc(d.Floats, math.IsNaN) { // a NULL's payload is 0
		return nil, errNaN
	}
	o := tbl.ColumnOrder(ci)
	cs := &ColumnStats{Name: def.Name, Type: def.Type, NullCount: float64(o.Nulls)}
	rows := o.Perm[o.Nulls:]
	cs.Distinct = float64(len(o.Ends) - min(o.Nulls, 1))
	var at func(int) float64
	switch d.Type {
	case storage.TypeInt64:
		at = func(i int) float64 { return float64(d.Ints[rows[i]]) }
	case storage.TypeFloat64:
		at = func(i int) float64 { return d.Floats[rows[i]] }
	}
	if at != nil && len(rows) > 0 {
		last := len(rows) - len(o.Run(len(o.Ends)-1))
		cs.HasRange, cs.Min, cs.Max = true, at(0), at(last)
		if buckets > 0 {
			cs.Hist = equiDepth(len(rows), buckets, at)
		}
	}
	return cs, nil
}
