package optimizer_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/querygen"
	"repro/internal/storage"
)

// sevenAlgorithms are the estimator configurations behind the public
// Algorithm values: all four rules, both statistics views, closure on and
// off, histogram joins.
func sevenAlgorithms() map[string]cardest.Config {
	hist := cardest.ELS()
	hist.Sel.HistogramJoins = true
	return map[string]cardest.Config{
		"ELS":     cardest.ELS(),
		"SM":      cardest.SM(),
		"SM+PTC":  cardest.SM().WithClosure(),
		"SSS+PTC": cardest.SSS().WithClosure(),
		"REP-S":   {Rule: cardest.RuleRepresentative, ApplyClosure: true, Rep: cardest.RepSmallest},
		"REP-L":   {Rule: cardest.RuleRepresentative, ApplyClosure: true, Rep: cardest.RepLargest},
		"ELS-H":   hist,
	}
}

// repertoires are the paper's methods and the budgeted ones.
func repertoires() map[string][]optimizer.JoinMethod {
	return map[string][]optimizer.JoinMethod{
		"paper":   {optimizer.NestedLoop, optimizer.SortMerge},
		"NL+hash": {optimizer.NestedLoop, optimizer.HashJoin},
	}
}

// dataCatalog generates and analyzes one table per spec.
func dataCatalog(t *testing.T, seed int64, specs []datagen.TableSpec) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, spec := range specs {
		tbl, err := datagen.Generate(spec, seed+int64(len(spec.Name)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

// samePlan requires two plan trees to agree node for node and bit for bit.
func samePlan(t *testing.T, label string, got, want optimizer.Plan) {
	t.Helper()
	if g, w := optimizer.Format(got), optimizer.Format(want); g != w {
		t.Fatalf("%s: plans differ:\n got\n%s want\n%s", label, g, w)
	}
	if math.Float64bits(got.Cost()) != math.Float64bits(want.Cost()) {
		t.Fatalf("%s: cost %v, want %v", label, got.Cost(), want.Cost())
	}
	for {
		if !reflect.DeepEqual(got.Tables(), want.Tables()) {
			t.Fatalf("%s: node covers %v, want %v", label, got.Tables(), want.Tables())
		}
		g, isJoin := got.(*optimizer.Join)
		w, wantJoin := want.(*optimizer.Join)
		if isJoin != wantJoin {
			t.Fatalf("%s: node is %T, want %T", label, got, want)
		}
		if !isJoin {
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: scan %+v, want %+v", label, got, want)
			}
			return
		}
		if !reflect.DeepEqual(g.Step, w.Step) {
			t.Fatalf("%s: joining %s: step\n got  %+v\n want %+v", label, w.Step.Table, g.Step, w.Step)
		}
		if !reflect.DeepEqual(g.Preds, w.Preds) || g.Method != w.Method ||
			g.LeftKey != w.LeftKey || g.RightKey != w.RightKey || !reflect.DeepEqual(g.Residual, w.Residual) ||
			math.Float64bits(g.Rows) != math.Float64bits(w.Rows) || math.Float64bits(g.PlanCost) != math.Float64bits(w.PlanCost) {
			t.Fatalf("%s: joining %s: got %s preds %v key %d,%d residual %v, want %s preds %v key %d,%d residual %v",
				label, w.Step.Table, g, g.Preds, g.LeftKey, g.RightKey, g.Residual,
				w, w.Preds, w.LeftKey, w.RightKey, w.Residual)
		}
		if !reflect.DeepEqual(g.Right, w.Right) {
			t.Fatalf("%s: inner scan %+v, want %+v", label, g.Right, w.Right)
		}
		got, want = g.Left, w.Left
	}
}

// diffBestPlan plans one query with BestPlan and with the reference search
// under every algorithm and the given repertoires, and a byte budget when
// budget is positive, and requires the same plan or the same error.
func diffBestPlan(t *testing.T, label string, cat *catalog.Catalog, tabs []cardest.TableRef, preds []expr.Predicate,
	methods map[string][]optimizer.JoinMethod, budget int64) {
	t.Helper()
	for algo, cfg := range sevenAlgorithms() {
		est, err := cardest.New(cat, tabs, preds, cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", label, algo, err)
		}
		for name, ms := range methods {
			label := fmt.Sprintf("%s %s %s", label, algo, name)
			opts := optimizer.Options{Methods: ms}
			if budget > 0 {
				opts.Governor = governor.New(context.Background(), governor.Limits{MaxMemory: budget})
			}
			o, err := optimizer.New(est, opts)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, wantErr := optimizer.ReferenceBestPlan(o)
			got, err := o.BestPlan()
			if wantErr != nil || err != nil {
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: err = %v, reference err = %v", label, err, wantErr)
				}
				continue
			}
			samePlan(t, label, got, want)
		}
	}
}

// BestPlan, searching on numbers and building only the winner's nodes, must
// return exactly what the search it replaced returns: the same tree, costs
// and sizes bit for bit, the same step explanations, the same errors.
func TestBestPlanMatchesReference(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(0); seed < seeds; seed++ {
		q := querygen.Generate(seed)
		cat := dataCatalog(t, q.DataSeed, q.Specs)
		diffBestPlan(t, fmt.Sprintf("seed %d", seed), cat, q.Tables, q.Preds, repertoires(), 0)
	}

	ref := func(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }

	// Wider searches than querygen's three tables, where visiting order and
	// tie-breaks decide: a chain and a star over distinct columns, a query
	// whose six tables share one equivalence class (closure links every
	// pair, so every subset is reached from several sides and a step has
	// several eligible predicates), and a disconnected one with a
	// non-equality edge. The tables are data-backed, and a local predicate
	// keeps the first one's rows few and its scan filtered, so its hash
	// build is not a shared one.
	const n = 6
	var specs []datagen.TableSpec
	var tabs []cardest.TableRef
	var chain, star, class []expr.Predicate
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("T%d", i)
		spec := datagen.TableSpec{Name: name, Rows: 2000 + 1000*i}
		for c := 0; c < n; c++ {
			spec.Columns = append(spec.Columns, datagen.ColumnSpec{
				Name: fmt.Sprintf("c%d", c), Dist: datagen.DistUniform, Domain: 50 + 30*c + 10*i,
			})
		}
		specs = append(specs, spec)
		// Aliases differ from the table names in case as well as spelling.
		tabs = append(tabs, cardest.TableRef{Alias: fmt.Sprintf("a%d", i), Table: name})
		if i > 0 {
			chain = append(chain, expr.NewJoin(ref(fmt.Sprintf("A%d", i-1), "c1"), expr.OpEQ, ref(fmt.Sprintf("a%d", i), "c0")))
			star = append(star, expr.NewJoin(ref(fmt.Sprintf("a%d", i), "c0"), expr.OpEQ, ref("a0", fmt.Sprintf("c%d", i))))
			class = append(class, expr.NewJoin(ref(fmt.Sprintf("a%d", i-1), "c2"), expr.OpEQ, ref(fmt.Sprintf("a%d", i), "c2")))
		}
	}
	few := expr.NewConst(ref("a0", "c5"), expr.OpLT, storage.Int64(2))
	chain, star, class = append(chain, few), append(star, few), append(class, few)
	cat := dataCatalog(t, 23, specs)
	class = append(class, expr.NewJoin(ref("a0", "c3"), expr.OpLT, ref("a4", "c3")))
	islands := []expr.Predicate{
		expr.NewJoin(ref("a0", "c2"), expr.OpEQ, ref("a1", "c2")),
		expr.NewJoin(ref("a1", "c2"), expr.OpEQ, ref("a2", "c2")),
		expr.NewJoin(ref("a3", "c4"), expr.OpLT, ref("a4", "c4")),
	}
	for name, preds := range map[string][]expr.Predicate{"chain": chain, "star": star, "class": class, "islands": islands} {
		diffBestPlan(t, name, cat, tabs, preds, repertoires(), 0)
		// T0..T2 fit this byte budget and T3..T5 do not, so only the first
		// three offer the hash join a shared build.
		diffBestPlan(t, name+", budgeted", cat, tabs, preds, repertoires(), 200000)
	}

	// A repertoire with no method for a cartesian step.
	diffBestPlan(t, "islands, hash only", cat, tabs, islands,
		map[string][]optimizer.JoinMethod{"hash": {optimizer.HashJoin}}, 0)
}
