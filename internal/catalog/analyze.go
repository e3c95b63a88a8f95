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
	// SampleRows, when positive and below the table's row count, derives
	// the statistics from a reservoir sample of that many rows instead of
	// every row; 0 scans every row.
	SampleRows int
	// Seed drives the reservoir sampler.
	Seed int64
}

// Analyze scans a data table, derives its statistics (and optional
// histograms), registers them in the catalog, and remembers the backing
// table so the executor can run plans against it.
//
// With SampleRows set, only a uniform random sample is scanned — what
// production systems do on large tables. The table cardinality stays exact
// (known from the storage layer); NULL counts and histogram counts are
// scaled up to the table, and per-column distinct counts are estimated with
// the Chao estimator d̂ = d_sample + f₁²/(2·f₂), where f₁ and f₂ are the
// counts of sample values seen exactly once and twice. Min/max come from
// the sample and may clip the true range; this is the price of sampling and
// exactly the kind of statistics error whose effect on join estimates the
// SampledStats ablation measures.
func (c *Catalog) Analyze(tbl *storage.Table, opts AnalyzeOptions) (*TableStats, error) {
	if tbl == nil {
		return nil, fmt.Errorf("catalog: Analyze(nil)")
	}
	if opts.SampleRows < 0 {
		return nil, fmt.Errorf("catalog: sample size must not be negative, got %d", opts.SampleRows)
	}
	if err := faultinject.Check(PointAnalyze); err != nil {
		return nil, fmt.Errorf("catalog: analyze %s: %w", tbl.Name(), err)
	}
	n := tbl.NumRows()
	// sample lists the scanned rows; nil scans every row.
	var sample []int
	scanned := n
	if opts.SampleRows > 0 && opts.SampleRows < n {
		sample = reservoir(n, opts.SampleRows, opts.Seed)
		scanned = len(sample)
	}
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
		freq := make(map[string]int)
		var numeric []float64
		isNumeric := def.Type == storage.TypeInt64 || def.Type == storage.TypeFloat64
		for i := 0; i < scanned; i++ {
			r := i
			if sample != nil {
				r = sample[i]
			}
			v := tbl.Value(r, ci)
			if v.IsNull() {
				cs.NullCount++
				continue
			}
			freq[v.Key()]++
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
		cs.Distinct = chaoEstimate(freq, scanned, n)
		if opts.HistogramBuckets > 0 && len(numeric) > 0 {
			h, err := NewEquiDepthHistogram(numeric, opts.HistogramBuckets)
			if err != nil {
				return nil, fmt.Errorf("catalog: analyze %s.%s: %w", tbl.Name(), def.Name, err)
			}
			cs.Hist = h
		}
		if sample != nil {
			scale := float64(n) / float64(scanned)
			cs.NullCount = math.Round(cs.NullCount * scale)
			if h := cs.Hist; h != nil {
				for i := range h.Buckets {
					h.Buckets[i].Count *= scale
				}
				h.Total *= scale
			}
		}
		ts.Columns[key(def.Name)] = cs
	}
	if err := c.AddTable(ts); err != nil {
		return nil, err
	}
	c.SetData(tbl.Name(), tbl)
	return ts, nil
}
