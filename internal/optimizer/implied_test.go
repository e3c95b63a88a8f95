package optimizer_test

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/querygen"
	"repro/internal/storage"
)

// nameClasses is a union-find over lower-cased "alias.column" names, of
// the columns a plan's equalities have made equal on every row.
type nameClasses map[string]string

func (u nameClasses) root(name string) string {
	for u[name] != "" {
		name = u[name]
	}
	return name
}

// column is one column of a join's input rows: its name and type.
type column struct {
	name string
	typ  storage.Type
}

// planColumns lists the columns of the rows a left-deep plan over the
// aliased tables produces, resolved by name through the catalog.
func planColumns(t *testing.T, cat *catalog.Catalog, tabs []cardest.TableRef, aliases ...string) []column {
	t.Helper()
	var cols []column
	for _, alias := range aliases {
		i := slices.IndexFunc(tabs, func(tr cardest.TableRef) bool { return strings.EqualFold(tr.Name(), alias) })
		if i < 0 {
			t.Fatalf("no table aliased %q", alias)
		}
		for _, c := range cat.Data(tabs[i].Table).Schema().Columns() {
			cols = append(cols, column{strings.ToLower(alias + "." + c.Name), c.Type})
		}
	}
	return cols
}

// checkNoImpliedResidual walks plan's joins innermost first, equating by
// name the two columns of every equality a join runs (its key and each
// equality of its residual) when they share a type, under which equal is
// transitive. A residual equality between two columns already equated is
// one the plan need not run, and fails the test. It returns how many of
// the joins' predicates were left unrun.
func checkNoImpliedResidual(t *testing.T, label string, cat *catalog.Catalog, tabs []cardest.TableRef, equal nameClasses, plan optimizer.Plan) int {
	t.Helper()
	j, ok := plan.(*optimizer.Join)
	if !ok {
		return 0
	}
	unrun := checkNoImpliedResidual(t, label, cat, tabs, equal, j.Left)
	left := planColumns(t, cat, tabs, optimizer.JoinOrder(j.Left)...)
	lw, cols := len(left), append(left, planColumns(t, cat, tabs, j.Right.Alias)...)
	run := func(l, r column) {
		if l.typ == r.typ {
			if a, b := equal.root(l.name), equal.root(r.name); a != b {
				equal[a] = b
			}
		}
	}
	ran := len(j.Residual)
	if j.LeftKey >= 0 {
		ran++
		run(cols[j.LeftKey], cols[lw+j.RightKey])
	}
	for _, c := range j.Residual {
		if c.Op != expr.OpEQ || c.Right < 0 {
			continue
		}
		l, r := cols[c.Left], cols[c.Right]
		if equal.root(l.name) == equal.root(r.name) {
			t.Errorf("%s: %s runs %s = %s, which the equalities run before it imply", label, j, l.name, r.name)
		}
		run(l, r)
	}
	return unrun + len(j.Preds) - ran
}

// No join evaluates an equality its class already implies: over every
// plan the optimizer picks for seeds 0–499 under every algorithm and both
// repertoires, a union-find by name over the equalities each plan runs,
// built apart from the optimizer's over column ids, never finds a residual
// equality between two columns it already equates. Closure's implied
// equalities make some of these plans leave predicates unrun, and the test
// requires that some do.
func TestImpliedEqualitiesAreNotExecuted(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 60
	}
	unrun := 0
	for seed := int64(0); seed < seeds; seed++ {
		q := querygen.Generate(seed)
		cat := dataCatalog(t, q.DataSeed, q.Specs)
		for algo, cfg := range sevenAlgorithms() {
			est, err := cardest.New(cat, q.Tables, q.Preds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for name, ms := range repertoires() {
				o, err := optimizer.New(est, optimizer.Options{Methods: ms})
				if err != nil {
					t.Fatal(err)
				}
				plan, err := o.BestPlan()
				if err != nil {
					t.Fatal(err)
				}
				unrun += checkNoImpliedResidual(t, fmt.Sprintf("seed %d %s %s", seed, algo, name), cat, q.Tables, nameClasses{}, plan)
			}
		}
	}
	if unrun == 0 {
		t.Fatal("no plan left an implied equality unrun")
	}
	t.Logf("%d implied equalities left unrun", unrun)
}

// classCase is a query over three one-column tables A, B and C, planned in
// each of orders under each of the repertoires methods.
type classCase struct {
	name    string
	cfg     cardest.Config
	data    map[string][]storage.Value // table → its one column's values
	preds   []expr.Predicate
	orders  [][]string
	methods [][]optimizer.JoinMethod
}

var (
	nlOnly    = []optimizer.JoinMethod{optimizer.NestedLoop}
	nlAndSM   = []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.SortMerge}
	nlAndHash = []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.HashJoin}
)

// eqV is the equality a.v = b.v.
func eqV(a, b string) expr.Predicate {
	return expr.NewJoin(expr.ColumnRef{Table: a, Column: "v"}, expr.OpEQ, expr.ColumnRef{Table: b, Column: "v"})
}

// floats boxes float64 values.
func floats(vs ...float64) []storage.Value {
	out := make([]storage.Value, len(vs))
	for i, v := range vs {
		out[i] = storage.Float64(v)
	}
	return out
}

// checkClassCase loads c's tables, plans each of its orders under each
// repertoire, and requires every plan's count (a COUNT(*) root) and
// execution to equal internal/bruteforce's. It hands each plan to check,
// if given, with a label naming it.
func checkClassCase(t *testing.T, c classCase, check func(label string, cat *catalog.Catalog, tabs []cardest.TableRef, plan optimizer.Plan)) {
	t.Helper()
	cat := catalog.New()
	var tabs []cardest.TableRef
	for _, name := range []string{"A", "B", "C"} {
		vals := c.data[name]
		tbl := storage.NewTable(name, storage.MustSchema(storage.ColumnDef{Name: "v", Type: vals[0].Type()}))
		for _, v := range vals {
			tbl.MustAppendRow(v)
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
		tabs = append(tabs, cardest.TableRef{Table: name})
	}
	want, names, err := bruteforce.Of(cat, tabs, c.preds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Rows == 0 {
		t.Fatalf("%s: the query returns no row, so it shows nothing", c.name)
	}
	est, err := cardest.New(cat, tabs, c.preds, c.cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range c.methods {
		o, err := optimizer.New(est, optimizer.Options{Methods: ms})
		if err != nil {
			t.Fatal(err)
		}
		for _, order := range c.orders {
			plan, err := o.PlanForOrder(order)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s, %s over %v", c.name, plan, order)
			count, _, err := executor.New(cat).Count(plan)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			res, err := executor.New(cat).Execute(plan)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			var got bruteforce.Multiset
			if err := got.AddTable(res.Table, names); err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if count != want.Rows || got != want {
				t.Errorf("%s: counted %d rows and executed %v, want %v", label, count, got, want)
			}
			if check != nil {
				check(label, cat, tabs, plan)
			}
		}
	}
}

// Equal is not transitive across every pair of types, so the optimizer
// must keep running an equality whose columns are equated only through
// such a pair, or only through an equality no join has run yet. Each case
// plans its join orders of three tables through PlanForOrder, under
// each repertoire, and counts (a COUNT(*) root) and executes every plan
// against internal/bruteforce:
//   - int64 and float64 columns in one class, with values at 2^53: an
//     int64 meets a float64 as float64, so 2^53+1 equals 2^53.0 equals
//     2^53 while the two int64 values differ;
//   - Algorithm SM, which runs no closure, over A.v = B.v AND B.v = C.v in
//     the order A, C, B: A and C meet in a cross product, so B's join runs
//     one equality as its key and must still run the other.
//
// A float64 NaN, which compares equal to every value, would break equal's
// transitivity too, but no table holding one can be loaded: ANALYZE
// refuses it.
func TestNonTransitiveEqualitiesAreExecuted(t *testing.T) {
	const big = 1 << 53
	ints := func(vs ...int64) []storage.Value {
		out := make([]storage.Value, len(vs))
		for i, v := range vs {
			out[i] = storage.Int64(v)
		}
		return out
	}
	for _, c := range []classCase{
		{
			name: "int64 and float64 at 2^53", cfg: cardest.ELS(),
			data: map[string][]storage.Value{
				"A": ints(big+1, big, 7), "B": floats(big, 7), "C": ints(big, big+1, 7),
			},
			preds:   []expr.Predicate{eqV("A", "B"), eqV("B", "C"), eqV("A", "C")},
			orders:  permutations("A", "B", "C"),
			methods: [][]optimizer.JoinMethod{nlOnly, nlAndSM, nlAndHash},
		},
		{
			name: "SM after a cross product", cfg: cardest.SM(),
			data: map[string][]storage.Value{
				"A": ints(1, 2, 4), "B": ints(1, 2, 3), "C": ints(1, 3, 4),
			},
			preds:   []expr.Predicate{eqV("A", "B"), eqV("B", "C")},
			orders:  [][]string{{"A", "C", "B"}},
			methods: [][]optimizer.JoinMethod{nlOnly, nlAndSM, nlAndHash},
		},
	} {
		checkClassCase(t, c, nil)
	}
	nan := storage.NewTable("A", storage.MustSchema(storage.ColumnDef{Name: "v", Type: storage.TypeFloat64}))
	nan.MustAppendRow(storage.Float64(math.NaN()))
	nan.MustAppendRow(storage.Float64(3))
	if _, err := catalog.New().Analyze(nan, catalog.AnalyzeOptions{}); err == nil {
		t.Error("ANALYZE loaded a float64 column holding a NaN")
	}
}

// No loaded column holds a NaN, so equal is transitive over float64 as over
// every other one type: in a three-table float64 class A.v = B.v AND
// B.v = C.v AND A.v = C.v, over -0 and 0 (equal) and ±Inf, every plan of
// every join order under each repertoire leaves the class's implied
// equality unrun, and counts and executes to internal/bruteforce's rows.
func TestFloat64EqualitiesAreTransitive(t *testing.T) {
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	checkClassCase(t, classCase{
		name: "float64 class", cfg: cardest.ELS(),
		data: map[string][]storage.Value{
			"A": floats(negZero, inf, -inf, 2, 0), "B": floats(0, inf, 3, -inf, negZero), "C": floats(0, negZero, inf, -inf, 5),
		},
		preds:   []expr.Predicate{eqV("A", "B"), eqV("B", "C"), eqV("A", "C")},
		orders:  permutations("A", "B", "C"),
		methods: [][]optimizer.JoinMethod{nlOnly, nlAndSM, nlAndHash},
	}, func(label string, cat *catalog.Catalog, tabs []cardest.TableRef, plan optimizer.Plan) {
		if unrun := checkNoImpliedResidual(t, label, cat, tabs, nameClasses{}, plan); unrun != 1 {
			t.Errorf("%s: %d equalities left unrun, want the one the class implies", label, unrun)
		}
	})
}

// permutations lists every order of the given tables.
func permutations(tables ...string) [][]string {
	if len(tables) <= 1 {
		return [][]string{tables}
	}
	var out [][]string
	for i, first := range tables {
		rest := append(slices.Clone(tables[:i]), tables[i+1:]...)
		for _, p := range permutations(rest...) {
			out = append(out, append([]string{first}, p...))
		}
	}
	return out
}
