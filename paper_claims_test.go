package els

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/experiment"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/querygen"
	"repro/internal/sqlparse"
)

// seqTable is a table of datagen.DistSequential columns: row i holds
// i mod d in a column of domain d.
type seqTable struct {
	name string
	rows int64
	cols map[string]int64 // column name → domain
}

// claimShape is a join query over sequential tables, written as its
// equivalence classes: each class lists "table.column" members, one per
// table, joined as a chain (or, when star is set, all to the first).
//
// Every domain is a prefix {0..d−1} and every table's row count is a
// multiple of the product of its columns' domains, which are pairwise
// coprime. Each class's values are then exactly uniform and contained in
// one another, and a table's columns are exactly independent, so the
// paper's Equation 3 is the true row count.
type claimShape struct {
	name    string
	tables  []seqTable
	classes [][]string
	star    bool
}

// sql renders the shape's COUNT(*) statement.
func (s claimShape) sql() string {
	var from, where []string
	for _, t := range s.tables {
		from = append(from, t.name)
	}
	for _, class := range s.classes {
		for i := 1; i < len(class); i++ {
			left := class[i-1]
			if s.star {
				left = class[0]
			}
			where = append(where, left+" = "+class[i])
		}
	}
	return "SELECT COUNT(*) FROM " + strings.Join(from, ", ") + " WHERE " + strings.Join(where, " AND ")
}

// equation3 is Equation 3 over the shape's declared statistics, in
// integers: the product of the row counts, divided in each class by every
// domain but the smallest.
func (s claimShape) equation3(t *testing.T) int64 {
	num, den := int64(1), int64(1)
	domain := map[string]int64{}
	for _, tbl := range s.tables {
		num *= tbl.rows
		for col, d := range tbl.cols {
			domain[tbl.name+"."+col] = d
		}
	}
	for _, class := range s.classes {
		var ds []int64
		for _, member := range class {
			ds = append(ds, domain[member])
		}
		slices.Sort(ds)
		for _, d := range ds[1:] {
			den *= d
		}
	}
	if num%den != 0 {
		t.Fatalf("%s: Equation 3 = %d/%d is not a row count", s.name, num, den)
	}
	return num / den
}

// load generates the shape's tables into a new System.
func (s claimShape) load(t *testing.T) *System {
	t.Helper()
	sys := New()
	for _, tbl := range s.tables {
		spec := datagen.TableSpec{Name: tbl.name, Rows: int(tbl.rows)}
		for col, d := range tbl.cols {
			spec.Columns = append(spec.Columns, datagen.ColumnSpec{Name: col, Dist: datagen.DistSequential, Domain: int(d)})
		}
		slices.SortFunc(spec.Columns, func(a, b datagen.ColumnSpec) int { return strings.Compare(a.Name, b.Name) })
		data, err := datagen.Generate(spec, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.mutate(func(cat *catalog.Catalog) error {
			_, err := cat.Analyze(data, catalog.AnalyzeOptions{})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// claimShapes are Example 1b, chains of two to five tables and stars of
// three to five over one class, and queries over two classes.
func claimShapes() []claimShape {
	shapes := []claimShape{{
		name: "Example 1b",
		tables: []seqTable{
			{"R1", 100, map[string]int64{"x": 10}},
			{"R2", 1000, map[string]int64{"y": 100}},
			{"R3", 1000, map[string]int64{"z": 1000}},
		},
		classes: [][]string{{"R1.x", "R2.y", "R3.z"}},
	}}
	domains, mults := []int64{4, 8, 2, 16, 6}, []int64{3, 2, 5, 1, 4}
	for n := 2; n <= 5; n++ {
		for _, star := range []bool{false, true} {
			s := claimShape{name: fmt.Sprintf("chain of %d", n), classes: [][]string{nil}, star: star}
			if star {
				if n == 2 {
					continue // the chain of two
				}
				s.name = fmt.Sprintf("star of %d", n)
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("T%d", i)
				s.tables = append(s.tables, seqTable{name, domains[i] * mults[i], map[string]int64{"k": domains[i]}})
				s.classes[0] = append(s.classes[0], name+".k")
			}
			shapes = append(shapes, s)
		}
	}
	return append(shapes,
		claimShape{
			name: "two classes, star",
			tables: []seqTable{
				{"F", 2 * 3 * 2, map[string]int64{"a": 2, "b": 3}},
				{"D1", 4 * 3, map[string]int64{"a": 4}},
				{"D2", 9, map[string]int64{"b": 9}},
			},
			classes: [][]string{{"F.a", "D1.a"}, {"F.b", "D2.b"}},
		},
		claimShape{
			name: "two classes, one pair",
			tables: []seqTable{
				{"R", 2 * 3 * 4, map[string]int64{"a": 2, "b": 3}},
				{"S", 4 * 9, map[string]int64{"a": 4, "b": 9}},
			},
			classes: [][]string{{"R.a", "S.a"}, {"R.b", "S.b"}},
		})
}

// permutations returns every ordering of names.
func permutations(names []string) [][]string {
	if len(names) <= 1 {
		return [][]string{slices.Clone(names)}
	}
	var out [][]string
	for i, first := range names {
		rest := append(slices.Clip(names[:i]), names[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]string{first}, p...))
		}
	}
	return out
}

// The paper's Section 7 theorem, checked against rows rather than against
// the estimator's own arithmetic: on data where uniformity, containment and
// independence hold exactly, Rule LS along every join order estimates
// Equation 3, which is the executed COUNT(*). On Example 1b along R2, R3,
// R1, Rule M and Rule SS miss it by the paper's factors (Examples 2 and 3).
func TestEquation3AgainstRows(t *testing.T) {
	for _, shape := range claimShapes() {
		sys := shape.load(t)
		sql := shape.sql()
		want := shape.equation3(t)
		res, err := sys.Query(sql, AlgorithmELS)
		if err != nil {
			t.Fatalf("%s: %v", shape.name, err)
		}
		if res.Count != want {
			t.Errorf("%s: COUNT(*) = %d, Equation 3 = %d (%s)", shape.name, res.Count, want, sql)
		}
		if res.MaxQError != 1 {
			t.Errorf("%s: max q-error %v, want 1: every node's estimate is exact here\n%s", shape.name, res.MaxQError, res.FormatAnalyze())
		}
		if got := sys.Stats().Robustness.MaxQError; got != 1 {
			t.Errorf("%s: Stats().Robustness.MaxQError = %v, want the query's 1", shape.name, got)
		}
		var names []string
		for _, tbl := range shape.tables {
			names = append(names, tbl.name)
		}
		for _, order := range permutations(names) {
			est, err := sys.EstimateOrder(sql, AlgorithmELS, order)
			if err != nil {
				t.Fatalf("%s along %v: %v", shape.name, order, err)
			}
			if math.Abs(est.FinalSize-float64(want)) > 1e-9*float64(want) {
				t.Errorf("%s: ELS along %v = %g, Equation 3 and COUNT(*) = %d", shape.name, order, est.FinalSize, want)
			}
		}
		if shape.name != "Example 1b" {
			continue
		}
		for algo, paper := range map[Algorithm]float64{AlgorithmSMPTC: 1, AlgorithmSSS: 100} {
			est, err := sys.EstimateOrder(sql, algo, []string{"R2", "R3", "R1"})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(est.FinalSize-paper) > 1e-9*paper {
				t.Errorf("%s along R2, R3, R1 = %g, want the paper's %g against %d rows", algo, est.FinalSize, paper, want)
			}
		}
	}
}

// Every left-deep join order of a query returns its rows, not only the
// orders the optimizer picks: each table permutation of every generated
// query, and all 24 of Section 8's four-table query at scale 10, planned
// through PlanForOrder and executed, must give the brute-force evaluator's
// row multiset. A divergence is appended to the ELS_DIFF_REPORT artifact.
func TestEveryLeftDeepOrderReturnsTheSameRows(t *testing.T) {
	for seed := int64(0); seed < differentialQueries(t); seed++ {
		q := querygen.Generate(seed)
		checkEveryOrder(t, fmt.Sprintf("seed %d (%s)", seed, q), loadGenerated(t, q, 0), q.Tables, q.Preds,
			optimizer.Options{Methods: q.Methods})
	}
	cat, err := experiment.Section8Catalog(experiment.Section8Options{Scale: 10, Seed: 42}, true)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := sqlparse.ParseAndBind(experiment.Section8Query, cat)
	if err != nil {
		t.Fatal(err)
	}
	var tabs []cardest.TableRef
	for _, item := range bound.Tables {
		tabs = append(tabs, cardest.TableRef{Alias: item.Alias, Table: item.Table})
	}
	checkEveryOrder(t, "Section 8", cat, tabs, bound.Where, optimizer.PaperOptions())
}

// checkEveryOrder plans the query under ELS along each permutation of its
// tables, executes the plan, and holds the result to bruteforce.Of.
func checkEveryOrder(t *testing.T, what string, cat *catalog.Catalog, tabs []cardest.TableRef, preds []expr.Predicate, opts optimizer.Options) {
	t.Helper()
	want, names, err := bruteforce.Of(cat, tabs, preds, nil)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	opt, err := optimizer.New(est, opts)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var aliases []string
	for _, ref := range tabs {
		aliases = append(aliases, ref.Name())
	}
	for _, order := range permutations(aliases) {
		plan, err := opt.PlanForOrder(order)
		if err != nil {
			t.Fatalf("%s along %v: %v", what, order, err)
		}
		res, _, _ := execGoverned(t, cat, plan, 0)
		var got bruteforce.Multiset
		if err := got.AddTable(res.Table, names); err != nil {
			t.Fatalf("%s along %v: %v", what, order, err)
		}
		if got != want {
			diffReport(t, map[string]any{
				"harness": "left-deep-orders", "query": what, "order": order,
				"plan": plan.String(), "got": got, "want": want,
			})
			t.Fatalf("%s along %v (plan %s): rows %v, want %v", what, order, plan, got, want)
		}
	}
}
