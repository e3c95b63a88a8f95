// Package experiment contains the reproduction harnesses: the Section 8
// end-to-end experiment (the paper's only results table), the worked
// examples, and the sweeps that put numbers on the paper's claims (A1–A5).
// cmd/elsbench prints them all, and EXPERIMENTS.md is that output.
package experiment

import (
	"fmt"
	"strings"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// Section8Query is the experiment's SQL text (the paper's original query,
// before predicate transitive closure).
const Section8Query = "SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 100"

// Section8Options configures the Section 8 run.
type Section8Options struct {
	// Scale divides every table cardinality (1 = the paper's sizes:
	// ‖S‖=1000 … ‖G‖=100000; 10 is a fast smoke-test scale). The selection
	// constant scales along (s < 100/scale) so the result stays "exactly
	// 100/scale rows".
	Scale int
	// Seed drives the data generator.
	Seed int64
	// SkipExecution computes plans and estimates only (no data generation
	// or execution); timings are zero.
	SkipExecution bool
}

// Section8Row is one line of the reproduced table.
type Section8Row struct {
	// Query labels the predicate set the optimizer saw: "Orig." or
	// "Orig. + PTC" (matching the paper's first column).
	Query string
	// Algorithm is SM, SSS or ELS.
	Algorithm string
	// JoinOrder is the base-table order of the chosen left-deep plan.
	JoinOrder []string
	// Methods are the join methods along the plan, innermost first.
	Methods []string
	// EstimatedSizes are the estimated intermediate result sizes after each
	// join, innermost first (the paper's "Estimated Result Sizes" column).
	EstimatedSizes []float64
	// EstimatedCost is the optimizer's cost for the chosen plan.
	EstimatedCost float64
	// TrueCount is the executed COUNT(*) (identical across rows).
	TrueCount int64
	// Stats are the execution work counters and wall time (FormatSection8
	// prints the counters only).
	Stats executor.Stats
	// Plan is the formatted plan tree.
	Plan string
}

// Section8Result is the full reproduced table.
type Section8Result struct {
	// Rows are in the paper's order: SM, SM+PTC, SSS+PTC, ELS.
	Rows []Section8Row
	// CorrectSize is the exact result size (100/scale), which the paper
	// notes is the correct intermediate size after every subset of joins
	// (with the implied local predicates applied).
	CorrectSize float64
	// Scale echoes the option.
	Scale int
}

// Section8Catalog builds the experiment's catalog. With data=true the
// tables are generated (join columns are permutations, so uniformity and
// containment hold exactly) and ANALYZEd; otherwise the paper's statistics
// are declared synthetically.
func Section8Catalog(opts Section8Options, data bool) (*catalog.Catalog, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	cat := catalog.New()
	if !data {
		cat.MustAddTable(catalog.SimpleTable("S", 1000/float64(opts.Scale), map[string]float64{"s": 1000 / float64(opts.Scale)}))
		cat.MustAddTable(catalog.SimpleTable("M", 10000/float64(opts.Scale), map[string]float64{"m": 10000 / float64(opts.Scale)}))
		cat.MustAddTable(catalog.SimpleTable("B", 50000/float64(opts.Scale), map[string]float64{"b": 50000 / float64(opts.Scale)}))
		cat.MustAddTable(catalog.SimpleTable("G", 100000/float64(opts.Scale), map[string]float64{"g": 100000 / float64(opts.Scale)}))
		return cat, nil
	}
	s, m, b, g, err := datagen.PaperTables(opts.Scale, opts.Seed)
	if err != nil {
		return nil, err
	}
	for _, tbl := range []*storage.Table{s, m, b, g} {
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// section8Predicates returns the original query's predicates with the
// selection constant scaled.
func section8Predicates(scale int) []expr.Predicate {
	cut := int64(100 / scale)
	if cut < 1 {
		cut = 1
	}
	return []expr.Predicate{
		expr.NewJoin(expr.ColumnRef{Table: "S", Column: "s"}, expr.OpEQ, expr.ColumnRef{Table: "M", Column: "m"}),
		expr.NewJoin(expr.ColumnRef{Table: "M", Column: "m"}, expr.OpEQ, expr.ColumnRef{Table: "B", Column: "b"}),
		expr.NewJoin(expr.ColumnRef{Table: "B", Column: "b"}, expr.OpEQ, expr.ColumnRef{Table: "G", Column: "g"}),
		expr.NewConst(expr.ColumnRef{Table: "S", Column: "s"}, expr.OpLT, storage.Int64(cut)),
	}
}

func section8Tables() []cardest.TableRef {
	return []cardest.TableRef{{Table: "S"}, {Table: "M"}, {Table: "B"}, {Table: "G"}}
}

// RunSection8 reproduces the paper's Section 8 table: four optimizer
// configurations planning and executing the same query over the same data.
func RunSection8(opts Section8Options) (*Section8Result, error) {
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	cat, err := Section8Catalog(opts, !opts.SkipExecution)
	if err != nil {
		return nil, err
	}
	preds := section8Predicates(opts.Scale)
	runs := []struct {
		query string
		cfg   cardest.Config
	}{
		{"Orig.", cardest.SM()},
		{"Orig. + PTC", cardest.SM().WithClosure()},
		{"Orig. + PTC", cardest.SSS().WithClosure()},
		{"Orig.", cardest.ELS()},
	}
	result := &Section8Result{
		CorrectSize: 100 / float64(opts.Scale),
		Scale:       opts.Scale,
	}
	exec := executor.New(cat)
	for _, run := range runs {
		est, err := cardest.New(cat, section8Tables(), preds, run.cfg)
		if err != nil {
			return nil, err
		}
		opt, err := optimizer.New(est, optimizer.PaperOptions())
		if err != nil {
			return nil, err
		}
		plan, err := opt.BestPlan()
		if err != nil {
			return nil, err
		}
		row := Section8Row{
			Query:          run.query,
			Algorithm:      run.cfg.Name(),
			JoinOrder:      optimizer.JoinOrder(plan),
			EstimatedSizes: optimizer.StepSizes(plan),
			EstimatedCost:  plan.Cost(),
			Plan:           optimizer.Format(plan),
			Methods:        planMethods(plan),
		}
		if !opts.SkipExecution {
			count, stats, err := exec.Count(plan)
			if err != nil {
				return nil, err
			}
			row.TrueCount = count
			row.Stats = stats
		}
		result.Rows = append(result.Rows, row)
	}
	return result, nil
}

func planMethods(p optimizer.Plan) []string {
	var out []string
	var walk func(optimizer.Plan)
	walk = func(n optimizer.Plan) {
		if j, ok := n.(*optimizer.Join); ok {
			walk(j.Left)
			out = append(out, j.Method.String())
		}
	}
	walk(p)
	return out
}

// FormatSection8 renders the result like the paper's table. Tuples scanned
// stand in for the paper's elapsed seconds: they depend on the plan alone,
// not on the machine, so the rendering is the same on every run.
func FormatSection8(res *Section8Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Section 8 experiment (scale 1/%d, correct size %.0f)\n", res.Scale, res.CorrectSize)
	fmt.Fprintf(&b, "%-12s %-5s %-22s %-34s %12s %14s\n",
		"Query", "Algo", "Join Order", "Estimated Result Sizes", "TrueCount", "TuplesScanned")
	for _, r := range res.Rows {
		sizes := make([]string, len(r.EstimatedSizes))
		for i, s := range r.EstimatedSizes {
			sizes[i] = fmt.Sprintf("%.3g", s)
		}
		fmt.Fprintf(&b, "%-12s %-5s %-22s %-34s %12d %14d\n",
			r.Query, r.Algorithm,
			strings.Join(r.JoinOrder, "⋈"),
			"("+strings.Join(sizes, ", ")+")",
			r.TrueCount, r.Stats.TuplesScanned)
	}
	return b.String()
}
