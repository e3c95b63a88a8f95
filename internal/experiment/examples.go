package experiment

import (
	"fmt"
	"strings"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/selest"
)

// WorkedExample is the reproduction of one of the paper's inline numeric
// examples, with the paper's expected value attached.
type WorkedExample struct {
	// ID names the exhibit (e.g. "Example 2").
	ID string
	// Description explains what is computed.
	Description string
	// Got is the value this implementation produces.
	Got float64
	// Want is the value printed in the paper.
	Want float64
}

// Matches reports whether the reproduction hits the paper's number exactly.
func (w WorkedExample) Matches() bool { return w.Got == w.Want }

// String renders one line of the examples report.
func (w WorkedExample) String() string {
	status := "OK"
	if !w.Matches() {
		status = "MISMATCH"
	}
	return fmt.Sprintf("%-12s %-58s got %-12g want %-12g %s", w.ID, w.Description, w.Got, w.Want, status)
}

// example1bEstimator builds the estimator over the Examples 1–3 statistics
// under the given config.
func example1bEstimator(cfg cardest.Config) (*cardest.Estimator, error) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("R1", 100, map[string]float64{"x": 10}))
	cat.MustAddTable(catalog.SimpleTable("R2", 1000, map[string]float64{"y": 100}))
	cat.MustAddTable(catalog.SimpleTable("R3", 1000, map[string]float64{"z": 1000}))
	tabs := []cardest.TableRef{{Table: "R1"}, {Table: "R2"}, {Table: "R3"}}
	preds := []expr.Predicate{
		expr.NewJoin(expr.ColumnRef{Table: "R1", Column: "x"}, expr.OpEQ, expr.ColumnRef{Table: "R2", Column: "y"}),
		expr.NewJoin(expr.ColumnRef{Table: "R2", Column: "y"}, expr.OpEQ, expr.ColumnRef{Table: "R3", Column: "z"}),
	}
	return cardest.New(cat, tabs, preds, cfg)
}

// RunWorkedExamples reproduces every inline numeric exhibit of the paper:
// Example 1b (Equations 2 and 3), Example 2 (Rule M), Example 3 (Rules SS
// and LS), the representative-selectivity argument of Section 3.3, the urn
// model numbers of Section 5, and the single-table j-equivalence numbers of
// Section 6.
func RunWorkedExamples() ([]WorkedExample, error) {
	var out []WorkedExample
	add := func(id, desc string, got, want float64) {
		out = append(out, WorkedExample{ID: id, Description: desc, Got: got, Want: want})
	}

	// --- Example 1b: two-way and three-way sizes.
	els, err := example1bEstimator(cardest.ELS())
	if err != nil {
		return nil, err
	}
	twoWay, err := els.FinalSize([]string{"R2", "R3"})
	if err != nil {
		return nil, err
	}
	add("Example 1b", "‖R2⋈R3‖ via Equation 2", twoWay, 1000)
	threeWay, err := els.OracleSize([]string{"R1", "R2", "R3"})
	if err != nil {
		return nil, err
	}
	add("Example 1b", "‖R1⋈R2⋈R3‖ via Equation 3", threeWay, 1000)

	// --- Example 2: Rule M underestimates.
	sm, err := example1bEstimator(cardest.SM().WithClosure())
	if err != nil {
		return nil, err
	}
	mSize, err := sm.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		return nil, err
	}
	add("Example 2", "Rule M along R2,R3,R1 (correct: 1000)", mSize, 1)

	// --- Example 3: Rule SS underestimates; Rule LS is exact.
	sss, err := example1bEstimator(cardest.SSS().WithClosure())
	if err != nil {
		return nil, err
	}
	ssSize, err := sss.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		return nil, err
	}
	add("Example 3", "Rule SS along R2,R3,R1 (correct: 1000)", ssSize, 100)
	lsSize, err := els.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		return nil, err
	}
	add("Example 3", "Rule LS along R2,R3,R1", lsSize, 1000)

	// --- Section 3.3: no representative selectivity can be right.
	repHi, err := example1bEstimator(cardest.Config{
		Rule: cardest.RuleRepresentative, ApplyClosure: true, Rep: cardest.RepLargest,
	})
	if err != nil {
		return nil, err
	}
	hi, err := repHi.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		return nil, err
	}
	add("Section 3.3", "representative selectivity 0.01 (too high)", hi, 10000)
	repLo, err := example1bEstimator(cardest.Config{
		Rule: cardest.RuleRepresentative, ApplyClosure: true, Rep: cardest.RepSmallest,
	})
	if err != nil {
		return nil, err
	}
	lo, err := repLo.FinalSize([]string{"R2", "R3", "R1"})
	if err != nil {
		return nil, err
	}
	add("Section 3.3", "representative selectivity 0.001 (too low)", lo, 100)

	// --- Section 5: urn model vs linear reduction.
	add("Section 5", "urn d′ for d=10000, ‖R‖′=50000", selest.UrnDistinctCeil(10000, 50000), 9933)
	add("Section 5", "linear d′ for d=10000, ‖R‖=100000, ‖R‖′=50000", selest.LinearDistinct(10000, 100000, 50000), 5000)
	add("Section 5", "urn d′ at full retention ‖R‖′=‖R‖", selest.UrnDistinctCeil(10000, 100000), 10000)

	// --- Section 6: single-table j-equivalent columns.
	ts := catalog.SimpleTable("R2", 1000, map[string]float64{"y": 10, "w": 50})
	eff, err := selest.EffectiveTable(ts, ts.Name, []expr.Predicate{
		expr.NewJoin(expr.ColumnRef{Table: "R2", Column: "y"}, expr.OpEQ, expr.ColumnRef{Table: "R2", Column: "w"}),
	}, nil)
	if err != nil {
		return nil, err
	}
	add("Section 6", "‖R2‖′ = ⌈1000/50⌉ with (R2.y = R2.w)", eff.Card, 20)
	dEff, err := eff.ColumnCard("y")
	if err != nil {
		return nil, err
	}
	add("Section 6", "effective join cardinality ⌈10(1−0.9²⁰)⌉", dEff, 9)

	return out, nil
}

// FormatWorkedExamples renders the examples report.
func FormatWorkedExamples(examples []WorkedExample) string {
	var b strings.Builder
	b.WriteString("Worked examples (paper value vs reproduction)\n")
	for _, ex := range examples {
		b.WriteString(ex.String())
		b.WriteByte('\n')
	}
	return b.String()
}
