package els

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/eqclass"
	"repro/internal/expr"
	"repro/internal/querygen"
	"repro/internal/selest"
	"repro/internal/storage"
)

// referenceStats are one table's statistics after its local predicates,
// keyed by name: the reference model of the estimator's folding by column
// id.
type referenceStats struct {
	card    float64            // ‖R‖′
	colCard map[string]float64 // lower-cased column name -> d′
}

// referenceFold folds the local predicates and OR-groups of the table the
// query calls name into its statistics ts by column name: ELS steps 3–4
// with Section 6's single-table j-equivalence reduction when effective is
// set, and the standard algorithm's table-only reduction when it is not.
// Constant predicates group by column (referenceConstGroups), and the
// same-table equalities form their own name-keyed classes.
func referenceFold(ts *catalog.TableStats, name string, locals []expr.Predicate, disjs []expr.Disjunction, effective bool) (*referenceStats, error) {
	eff := &referenceStats{card: ts.Card, colCard: make(map[string]float64, len(ts.Columns))}
	for k, cs := range ts.Columns {
		eff.colCard[k] = cs.Distinct
	}

	var consts, colEq, colOther []expr.Predicate
	for _, p := range locals {
		if !p.References(name) {
			return nil, fmt.Errorf("predicate %s does not reference table %s", p, name)
		}
		switch kind := p.Kind(); {
		case kind == expr.KindLocalConst:
			consts = append(consts, p)
		case kind != expr.KindLocalColCol:
			return nil, fmt.Errorf("%s is a join predicate, not a local predicate of %s", p, name)
		case !effective:
			l, r := ts.Column(p.Left.Column), ts.Column(p.Right.Column)
			if l == nil || r == nil {
				return nil, fmt.Errorf("table %s missing column in %s", name, p)
			}
			d := l.Distinct
			if r.Distinct > d {
				d = r.Distinct
			}
			if p.Op != expr.OpEQ {
				eff.card /= 3
			} else if d > 0 {
				eff.card /= d
			}
		case p.Op == expr.OpEQ:
			colEq = append(colEq, p)
		default:
			colOther = append(colOther, p)
		}
	}

	// Constant predicates (Section 5, with [16] resolution per column).
	cardBefore := eff.card
	var predicated []string
	for _, set := range referenceConstGroups(consts) {
		cs := ts.Column(set.Column.Column)
		if cs == nil {
			return nil, fmt.Errorf("table %s has no column %q", name, set.Column.Column)
		}
		sel, err := set.Resolve(cs)
		if err != nil {
			return nil, err
		}
		eff.card *= sel
		if !effective {
			continue
		}
		key := strings.ToLower(set.Column.Column)
		predicated = append(predicated, key)
		if slices.ContainsFunc(set.Preds, func(p expr.Predicate) bool { return p.Op == expr.OpEQ }) {
			if sel > 0 {
				eff.colCard[key] = 1
			} else {
				eff.colCard[key] = 0
			}
		} else {
			d := eff.colCard[key] * sel
			if sel > 0 && d < 1 {
				d = 1
			}
			eff.colCard[key] = d
		}
	}
	for range colOther {
		eff.card *= 1.0 / 3.0
	}
	for _, d := range disjs {
		if !d.References(name) {
			return nil, fmt.Errorf("disjunction %s does not reference table %s", d, name)
		}
		sel, err := selest.DisjunctionSelectivity(ts, d)
		if err != nil {
			return nil, err
		}
		eff.card *= sel
	}
	if effective && eff.card < cardBefore {
		for k, cs := range ts.Columns {
			key := strings.ToLower(k)
			if slices.Contains(predicated, key) {
				continue
			}
			eff.colCard[key] = selest.ReduceDistinct(cs.Distinct, cardBefore, eff.card)
		}
	}

	// Same-table j-equivalent join columns (Section 6), by column name.
	sameTable := eqclass.New()
	for _, p := range colEq {
		sameTable.Union(expr.ColumnRef{Column: p.Left.Column}, expr.ColumnRef{Column: p.Right.Column})
	}
	for _, class := range sameTable.All() {
		group := make([]string, len(class))
		ds := make([]float64, len(class))
		for i, ref := range class {
			group[i] = strings.ToLower(ref.Column)
			d, ok := eff.colCard[group[i]]
			if !ok {
				return nil, fmt.Errorf("table %s has no column %q", name, group[i])
			}
			ds[i] = d
		}
		sort.Float64s(ds)
		div := 1.0
		for _, d := range ds[1:] {
			div *= d
		}
		before := eff.card
		if div > 0 {
			eff.card = math.Ceil(eff.card / div)
		} else {
			eff.card = 0
		}
		dEff := selest.UrnDistinctCeil(ds[0], eff.card)
		for _, col := range group {
			eff.colCard[col] = dEff
		}
		if eff.card < before {
			for k := range eff.colCard {
				if !slices.Contains(group, k) {
					eff.colCard[k] = selest.ReduceDistinct(eff.colCard[k], before, eff.card)
				}
			}
		}
	}
	return eff, nil
}

// referenceConstGroups buckets constant predicates by subject column, in
// column-key order.
func referenceConstGroups(preds []expr.Predicate) []selest.ColumnPredicateSet {
	byCol := make(map[string]*selest.ColumnPredicateSet)
	var order []string
	for _, p := range preds {
		k := p.Left.Key()
		set, ok := byCol[k]
		if !ok {
			set = &selest.ColumnPredicateSet{Column: p.Left}
			byCol[k] = set
			order = append(order, k)
		}
		set.Preds = append(set.Preds, p)
	}
	sort.Strings(order)
	out := make([]selest.ColumnPredicateSet, 0, len(order))
	for _, k := range order {
		out = append(out, *byCol[k])
	}
	return out
}

// widen gives each of a generated query's tables two more columns, w and x,
// and adds random local predicates over the four: one or two same-table
// equalities (Section 6: one group or two, and columns outside a group to
// shrink), a non-equality column comparison, a second constant predicate
// and an OR-group, each on a random table, so that every branch of the
// fold is drawn.
func widen(q querygen.Query, rng *rand.Rand) (querygen.Query, []expr.Disjunction) {
	q.Specs = slices.Clone(q.Specs)
	for i := range q.Specs {
		q.Specs[i].Columns = append(slices.Clip(q.Specs[i].Columns),
			datagen.ColumnSpec{Name: "w", Dist: datagen.DistUniform, Domain: 6},
			datagen.ColumnSpec{Name: "x", Dist: datagen.DistUniform, Domain: 3})
	}
	q.Preds = slices.Clip(q.Preds)
	cols := []string{"k", "v", "w", "x"}
	col := func(t int, c string) expr.ColumnRef { return expr.ColumnRef{Table: q.Tables[t].Table, Column: c} }
	pair := func(t int, op expr.CompareOp) {
		a := rng.Intn(4)
		b := (a + 1 + rng.Intn(3)) % 4
		q.Preds = append(q.Preds, expr.NewJoin(col(t, cols[a]), op, col(t, cols[b])))
	}
	if t := rng.Intn(len(q.Tables)); rng.Intn(2) == 0 {
		pair(t, expr.OpEQ)
		if rng.Intn(2) == 0 {
			pair(t, expr.OpEQ)
		}
	}
	if t := rng.Intn(len(q.Tables)); rng.Intn(3) == 0 {
		pair(t, expr.OpLT)
	}
	if t := rng.Intn(len(q.Tables)); rng.Intn(2) == 0 {
		ops := []expr.CompareOp{expr.OpEQ, expr.OpLT, expr.OpGE, expr.OpNE}
		q.Preds = append(q.Preds, expr.NewConst(col(t, cols[rng.Intn(4)]), ops[rng.Intn(len(ops))], storage.Int64(rng.Int63n(8))))
	}
	var disjs []expr.Disjunction
	if t := rng.Intn(len(q.Tables)); rng.Intn(3) == 0 {
		d, err := expr.NewDisjunction([]expr.Predicate{
			expr.NewConst(col(t, "v"), expr.OpEQ, storage.Int64(rng.Int63n(100))),
			expr.NewConst(col(t, "w"), expr.OpLT, storage.Int64(rng.Int63n(8))),
		})
		if err != nil {
			panic(err)
		}
		disjs = append(disjs, d)
	}
	return q, disjs
}

// Folding local predicates onto the estimator's column ids gives every
// table the ‖R‖′, and every column the d′, that folding them by column
// name gives (referenceFold), bit for bit: under every algorithm, over
// every generated query on data analyzed with histograms, as generated and
// widened with a column and random local predicates and OR-groups (widen). A
// column no predicate names reads its d′ through ColumnCard's replay of the
// table's row reductions.
func TestEffectiveStatsMatchReference(t *testing.T) {
	var tables, reduced, folded int
	for seed := int64(0); seed < differentialQueries(t); seed++ {
		q := querygen.Generate(seed)
		wide, disjs := widen(q, rand.New(rand.NewSource(seed)))
		for _, in := range []struct {
			q     querygen.Query
			disjs []expr.Disjunction
		}{{q, nil}, {wide, disjs}} {
			cat := loadGenerated(t, in.q, 16)
			for _, algo := range Algorithms() {
				cfg, err := algo.config()
				if err != nil {
					t.Fatal(err)
				}
				est, err := cardest.NewQuery(cat, in.q.Tables, in.q.Preds, in.disjs, cfg)
				if err != nil {
					t.Fatalf("seed %d %s: %v", seed, algo, err)
				}
				for i, ref := range est.Tables() {
					card, base, locals := est.Table(i)
					want, err := referenceFold(base, ref.Name(), locals, expr.DisjunctionsOf(est.Disjunctions(), ref.Name()), cfg.UseEffectiveStats)
					if err != nil {
						t.Fatal(err)
					}
					tables++
					if card < base.Card {
						reduced++
					}
					if slices.ContainsFunc(locals, func(p expr.Predicate) bool { return p.RightIsColumn && p.Op == expr.OpEQ }) {
						folded++
					}
					if math.Float64bits(card) != math.Float64bits(want.card) {
						t.Errorf("seed %d %s: ‖%s‖′ = %v, reference %v (%s)", seed, algo, ref.Name(), card, want.card, in.q)
					}
					for name := range base.Columns {
						d, err := est.ColumnCard(i, name)
						if err != nil || math.Float64bits(d) != math.Float64bits(want.colCard[name]) {
							t.Errorf("seed %d %s: d′(%s.%s) = %v (err %v), reference %v (%s)",
								seed, algo, ref.Name(), name, d, err, want.colCard[name], in.q)
						}
					}
				}
			}
		}
	}
	if reduced == 0 || folded == 0 {
		t.Errorf("of %d tables, %d had rows removed and %d a local column equality: want both", tables, reduced, folded)
	}
}
