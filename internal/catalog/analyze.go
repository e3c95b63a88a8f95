package catalog

import (
	"fmt"

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

// Analyze scans a data table, derives its statistics (and optional
// histograms), registers them in the catalog, and remembers the backing
// table so the executor can run plans against it. Every row is scanned, so
// the statistics are exact.
func (c *Catalog) Analyze(tbl *storage.Table, opts AnalyzeOptions) (*TableStats, error) {
	if tbl == nil {
		return nil, fmt.Errorf("catalog: Analyze(nil)")
	}
	if err := faultinject.Check(PointAnalyze); err != nil {
		return nil, fmt.Errorf("catalog: analyze %s: %w", tbl.Name(), err)
	}
	n := tbl.NumRows()
	schema := tbl.Schema()
	ts := &TableStats{
		Name:     tbl.Name(),
		Card:     float64(n),
		RowWidth: schema.RowWidth(),
		Columns:  make(map[string]*ColumnStats, schema.NumColumns()),
	}
	for ci := 0; ci < schema.NumColumns(); ci++ {
		def := schema.Column(ci)
		cs := &ColumnStats{Name: def.Name, Type: def.Type}
		seen := make(map[string]struct{})
		var numeric []float64
		isNumeric := def.Type == storage.TypeInt64 || def.Type == storage.TypeFloat64
		for r := 0; r < n; r++ {
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
				if opts.HistogramBuckets > 0 {
					numeric = append(numeric, f)
				}
			}
		}
		cs.Distinct = float64(len(seen))
		if opts.HistogramBuckets > 0 && len(numeric) > 0 {
			h, err := NewEquiDepthHistogram(numeric, opts.HistogramBuckets)
			if err != nil {
				return nil, fmt.Errorf("catalog: analyze %s.%s: %w", tbl.Name(), def.Name, err)
			}
			cs.Hist = h
		}
		ts.Columns[key(def.Name)] = cs
	}
	if err := c.AddTable(ts); err != nil {
		return nil, err
	}
	c.SetData(tbl.Name(), tbl)
	return ts, nil
}
