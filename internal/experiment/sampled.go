package experiment

import (
	"fmt"
	"strings"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
)

// SampledStatsRow compares ELS estimates computed from exact versus
// sampled statistics at one sample rate.
type SampledStatsRow struct {
	// SampleRows is the per-table sample size (0 = exact ANALYZE).
	SampleRows int
	// DistinctErr is the mean relative error of the estimated column
	// cardinalities d̂ vs the exact d, across join columns.
	DistinctErr float64
	// EstimateQError is the q-error of the ELS final-size estimate computed
	// from the (possibly sampled) statistics, vs the estimate from exact
	// statistics (which for this workload equals the Equation 3 truth).
	EstimateQError float64
}

// RunSampledStats is the A7 ablation: how does sampling-based ANALYZE
// (reservoir + Chao estimator) degrade Algorithm ELS's estimates? A 3-table
// chain over skewless uniform data is analyzed exactly and at several
// sample sizes; the ELS estimate from exact statistics is the baseline
// (it equals Equation 3 on this workload).
func RunSampledStats(tableRows int, sampleSizes []int, seed int64) ([]SampledStatsRow, error) {
	if tableRows <= 0 {
		return nil, fmt.Errorf("experiment: tableRows must be positive")
	}
	specs := []datagen.TableSpec{
		{Name: "X", Rows: tableRows, Columns: []datagen.ColumnSpec{{Name: "k", Dist: datagen.DistUniform, Domain: tableRows / 4}}},
		{Name: "Y", Rows: tableRows * 2, Columns: []datagen.ColumnSpec{{Name: "k", Dist: datagen.DistUniform, Domain: tableRows / 2}}},
		{Name: "Z", Rows: tableRows * 3, Columns: []datagen.ColumnSpec{{Name: "k", Dist: datagen.DistUniform, Domain: tableRows}}},
	}
	tables := make([]*catalog.TableStats, 0, len(specs))
	data := catalog.New()
	for i, spec := range specs {
		tbl, err := datagen.Generate(spec, seed+int64(i))
		if err != nil {
			return nil, err
		}
		ts, err := data.Analyze(tbl, catalog.AnalyzeOptions{})
		if err != nil {
			return nil, err
		}
		tables = append(tables, ts)
	}
	preds := []expr.Predicate{
		expr.NewJoin(expr.ColumnRef{Table: "X", Column: "k"}, expr.OpEQ, expr.ColumnRef{Table: "Y", Column: "k"}),
		expr.NewJoin(expr.ColumnRef{Table: "Y", Column: "k"}, expr.OpEQ, expr.ColumnRef{Table: "Z", Column: "k"}),
	}
	refs := []cardest.TableRef{{Table: "X"}, {Table: "Y"}, {Table: "Z"}}
	order := []string{"X", "Y", "Z"}

	exactEst, err := cardest.New(data, refs, preds, cardest.ELS())
	if err != nil {
		return nil, err
	}
	baseline, err := exactEst.FinalSize(order)
	if err != nil {
		return nil, err
	}

	rows := []SampledStatsRow{{SampleRows: 0, DistinctErr: 0, EstimateQError: 1}}
	for _, n := range sampleSizes {
		sampled := catalog.New()
		var distErr float64
		for i, spec := range specs {
			tbl := data.Data(spec.Name)
			ts, err := sampled.Analyze(tbl, catalog.AnalyzeOptions{SampleRows: n, Seed: seed + int64(100+i)})
			if err != nil {
				return nil, err
			}
			exact := tables[i].Column("k").Distinct
			est := ts.Column("k").Distinct
			if exact > 0 {
				d := (est - exact) / exact
				if d < 0 {
					d = -d
				}
				distErr += d
			}
		}
		distErr /= float64(len(specs))
		est, err := cardest.New(sampled, refs, preds, cardest.ELS())
		if err != nil {
			return nil, err
		}
		size, err := est.FinalSize(order)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SampledStatsRow{
			SampleRows:     n,
			DistinctErr:    distErr,
			EstimateQError: qerr(size, baseline),
		})
	}
	return rows, nil
}

// FormatSampledStats renders the A7 table.
func FormatSampledStats(rows []SampledStatsRow) string {
	var b strings.Builder
	b.WriteString("A7: ELS estimate quality under sampling-based ANALYZE (Chao estimator)\n")
	fmt.Fprintf(&b, "%12s %18s %18s\n", "sample rows", "mean |d̂−d|/d", "estimate q-error")
	for _, r := range rows {
		label := fmt.Sprintf("%d", r.SampleRows)
		if r.SampleRows == 0 {
			label = "exact"
		}
		fmt.Fprintf(&b, "%12s %18.4f %18.4f\n", label, r.DistinctErr, r.EstimateQError)
	}
	return b.String()
}
