package cardest

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/closure"
	"repro/internal/eqclass"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/selest"
)

// PointNewQuery is the fault-injection probe hit on estimator
// construction. A Payload of type func(*catalog.TableStats) corrupts a
// clone of each table's statistics before sanitization, exercising the
// graceful degradation path end to end.
const PointNewQuery = "cardest.newquery"

// TableRef binds a query alias to a catalog table. An empty Alias defaults
// to the table name.
type TableRef struct {
	// Alias is the name the query's predicates use.
	Alias string
	// Table is the catalog table name.
	Table string
}

// Name returns the effective alias.
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// maxTables is the most tables one query may name: a joined set is a
// 64-bit mask.
const maxTables = 64

// Estimator performs incremental join result size estimation for one query
// under one Config. Construction runs the preliminary phase of Algorithm
// ELS (steps 1–5): duplicate elimination, transitive closure, equivalence
// classes, local selectivities, effective statistics, and the Equation 2
// selectivity of every join predicate. Nothing is written after
// construction, so an Estimator may be shared by concurrent readers.
//
// Table i of Tables() is table number i, and bit i of a joined-set mask;
// steps 1–5 read tables, and columns by their Classes() id, by number.
type Estimator struct {
	cfg      Config
	cat      *catalog.Catalog
	refs     []TableRef
	preds    []expr.Predicate   // the (possibly closed) predicate set
	operands []eqclass.Operands // column ids of each predicate's operands
	disjs    []expr.Disjunction
	implied  []expr.Predicate
	classes  *eqclass.Classes
	base     []*catalog.TableStats    // by table number: the catalog's statistics, or a repaired clone
	eff      []*selest.EffectiveStats // by table number
	locals   [][]expr.Predicate       // by table number: local predicates, in predicate-set order
	cols     []column                 // by column id
	joins    []joinPred               // step 5, in predicate-set order
	touching [][]int32                // by table number: positions in joins of the predicates touching it, group by group
	groups   []joinGroup              // by group rank
	warnings []string                 // statistics repairs applied during construction
}

// column is one predicate column, resolved once: its table number, raw
// statistics and effective column cardinality d′ (ELS step 4).
type column struct {
	table int
	stats *catalog.ColumnStats
	card  float64
}

// joinPred is ELS step 5 for one join predicate, reduced to what an
// incremental step reads.
type joinPred struct {
	// pred is the predicate's position in the predicate set.
	pred int32
	// tables holds the bits of the two tables the predicate links.
	tables uint64
	// sel is the predicate's join selectivity: equation2 for an equality,
	// the classic 1/3 otherwise (the paper restricts itself to equalities).
	sel float64
	// group is the rank of the predicate's group in joinGroup.id order.
	group int32
	// eq reports an equality predicate.
	eq bool
}

// joinGroup is one unit of the selectivity rule: the join predicates of one
// equivalence class.
type joinGroup struct {
	// id is the equivalence class id of the group's equality predicates; a
	// non-equality predicate forms its own group under its canonical key
	// (independence assumption).
	id string
	// rep is the class's fixed selectivity under RuleRepresentative, where
	// hasRep says the class has one.
	rep    float64
	hasRep bool
}

// New builds an estimator for a query over the given tables and predicate
// conjunction. Every predicate column must resolve to a known alias and
// column.
func New(cat *catalog.Catalog, tables []TableRef, preds []expr.Predicate, cfg Config) (*Estimator, error) {
	return NewQuery(cat, tables, preds, nil, cfg)
}

// NewQuery is New extended with OR-groups (disjunctions of local
// predicates, a beyond-paper extension): each disjunction reduces its
// table's effective cardinality; disjunctions never merge equivalence
// classes and are excluded from transitive closure, which keeps the
// paper's machinery sound.
//
// All per-predicate work happens here: a join predicate whose selectivity
// cannot be computed fails construction, not the first JoinStep that finds
// it eligible.
func NewQuery(cat *catalog.Catalog, tables []TableRef, preds []expr.Predicate, disjs []expr.Disjunction, cfg Config) (*Estimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cat == nil {
		return nil, fmt.Errorf("cardest: nil catalog")
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("cardest: no tables")
	}
	if len(tables) > maxTables {
		return nil, fmt.Errorf("cardest: %d tables exceed the limit of %d", len(tables), maxTables)
	}
	n := len(tables)
	e := &Estimator{
		cfg:    cfg,
		cat:    cat,
		refs:   slices.Clone(tables),
		base:   make([]*catalog.TableStats, n),
		eff:    make([]*selest.EffectiveStats, n),
		locals: make([][]expr.Predicate, n),
	}

	// The construction probe can fail the estimator outright or hand back
	// a statistics corruptor to be applied to a clone of every table below.
	var corrupt func(*catalog.TableStats)
	if f, fired := faultinject.Fire(PointNewQuery); fired {
		if f.PanicValue != nil {
			panic(f.PanicValue)
		}
		if f.Err != nil {
			return nil, f.Err
		}
		corrupt, _ = f.Payload.(func(*catalog.TableStats))
	}

	// Resolve tables. Statistics are sanitized so that corrupt catalog
	// statistics (NaN, negative, zero column cardinalities) degrade to
	// paper defaults instead of propagating; only a table that needs a
	// repair is copied.
	for i, tr := range tables {
		alias := tr.Name()
		if t, dup := e.TableNumber(alias); dup && t < i {
			return nil, fmt.Errorf("cardest: duplicate table alias %q", alias)
		}
		ts := cat.Table(tr.Table)
		if ts == nil {
			return nil, fmt.Errorf("cardest: unknown table %q", tr.Table)
		}
		if corrupt != nil {
			ts = ts.Clone()
			corrupt(ts)
		}
		e.base[i] = sanitizeStats(ts, alias, &e.warnings)
	}

	// Step 1 (dedup) and step 2 (transitive closure), which number the
	// columns.
	var res closure.Result
	if cfg.ApplyClosure {
		res = closure.Compute(preds)
	} else {
		res = closure.Dedup(preds)
	}
	e.preds, e.operands, e.implied, e.classes = res.Predicates, res.Operands, res.Implied, res.Classes

	// Validate every predicate column once, by id, in first-occurrence
	// order.
	e.cols = make([]column, e.classes.Len())
	for id := range e.cols {
		var err error
		if e.cols[id], err = e.resolve(e.classes.Ref(int32(id))); err != nil {
			return nil, err
		}
	}
	// Validate and deduplicate disjunctions.
	e.disjs = expr.DedupDisjunctions(disjs)
	for _, d := range e.disjs {
		if len(d.Preds) == 0 {
			return nil, fmt.Errorf("cardest: empty disjunction")
		}
		for _, p := range d.Preds {
			if p.Kind() == expr.KindJoin {
				return nil, fmt.Errorf("cardest: join predicate %s not allowed in a disjunction", p)
			}
			if _, err := e.resolve(p.Left); err != nil {
				return nil, err
			}
			if p.RightIsColumn {
				if _, err := e.resolve(p.Right); err != nil {
					return nil, err
				}
			}
		}
	}

	// Steps 3–4: local selectivities and effective statistics per table.
	for i, p := range e.preds {
		ops := e.operands[i]
		if t := e.cols[ops.Left].table; ops.Right < 0 || e.cols[ops.Right].table == t {
			e.locals[t] = append(e.locals[t], p)
		}
	}
	for t, tr := range e.refs {
		alias := tr.Name()
		tableDisjs := expr.DisjunctionsOf(e.disjs, alias)
		var err error
		if cfg.UseEffectiveStats {
			e.eff[t], err = selest.EffectiveTable(e.base[t], alias, e.locals[t], tableDisjs)
		} else {
			e.eff[t], err = selest.StandardTable(e.base[t], alias, e.locals[t], tableDisjs)
		}
		if err != nil {
			return nil, err
		}
	}
	if err := e.computeJoinSelectivities(); err != nil {
		return nil, err
	}

	// Representative selectivities per class (only needed for RuleRepresentative).
	if cfg.Rule == RuleRepresentative {
		e.computeRepresentatives()
	}
	return e, nil
}

// computeJoinSelectivities is step 5: Equation 2 for every join predicate,
// from the effective column cardinalities, with the predicate's two table
// bits and its group. Groups are ranked in id order, and touching lists
// each table's predicates group by group, so a step that walks it
// multiplies groups in id order and predicates in predicate-set order.
func (e *Estimator) computeJoinSelectivities() error {
	for id := range e.cols {
		c := &e.cols[id]
		d, err := e.eff[c.table].ColumnCard(e.classes.Ref(int32(id)).Column)
		if err != nil {
			return err
		}
		c.card = d
	}
	var joins []joinPred
	var ids []string
	for i, p := range e.preds {
		ops := e.operands[i]
		if ops.Right < 0 || e.cols[ops.Left].table == e.cols[ops.Right].table {
			continue
		}
		l, r := &e.cols[ops.Left], &e.cols[ops.Right]
		jp := joinPred{pred: int32(i), tables: 1<<l.table | 1<<r.table, sel: 1.0 / 3.0, eq: p.Op == expr.OpEQ}
		id := e.classes.ClassOf(ops.Left)
		if jp.eq {
			jp.sel = e.equation2(l, r)
		} else {
			id = p.CanonicalKey()
		}
		joins = append(joins, jp)
		ids = append(ids, id)
	}
	ranked := slices.Clone(ids)
	slices.Sort(ranked)
	ranked = slices.Compact(ranked)
	groups := make([]joinGroup, len(ranked))
	for i, id := range ranked {
		groups[i].id = id
	}
	byGroup := make([]int32, len(joins))
	for i := range joins {
		rank, _ := slices.BinarySearch(ranked, ids[i])
		joins[i].group = int32(rank)
		byGroup[i] = int32(i)
	}
	slices.SortStableFunc(byGroup, func(a, b int32) int { return int(joins[a].group - joins[b].group) })

	e.touching = make([][]int32, len(e.refs))
	for _, i := range byGroup {
		for m := joins[i].tables; m != 0; m &= m - 1 {
			t := bits.TrailingZeros64(m)
			e.touching[t] = append(e.touching[t], i)
		}
	}
	e.joins, e.groups = joins, groups
	return nil
}

// resolve finds a predicate column's table number and raw statistics.
func (e *Estimator) resolve(ref expr.ColumnRef) (column, error) {
	t, ok := e.TableNumber(ref.Table)
	if !ok {
		return column{}, fmt.Errorf("cardest: predicate references unknown table %q", ref.Table)
	}
	cs := e.base[t].Column(ref.Column)
	if cs == nil {
		return column{}, fmt.Errorf("cardest: table %q has no column %q", ref.Table, ref.Column)
	}
	return column{table: t, stats: cs}, nil
}

// Predicates returns the predicate set the estimator works with (closed if
// the config applies closure). The optimizer plans with this same set so
// that implied local predicates generated by ELS are available for early
// selection, mirroring the paper's experiment.
func (e *Estimator) Predicates() []expr.Predicate { return e.preds }

// Operands returns the column ids of each predicate's operands, aligned with
// Predicates(); Classes().Ref(id) spells column id. Shared: callers must not
// modify it.
func (e *Estimator) Operands() []eqclass.Operands { return e.operands }

// TableOf returns the table number of column id.
func (e *Estimator) TableOf(id int32) int { return e.cols[id].table }

// Implied returns only the predicates added by transitive closure.
func (e *Estimator) Implied() []expr.Predicate { return e.implied }

// Warnings lists the statistics repairs applied during construction (one
// entry per corrupt statistic degraded to a paper default). Empty for
// healthy catalogs.
func (e *Estimator) Warnings() []string { return e.warnings }

// Disjunctions returns the query's OR-groups (deduplicated).
func (e *Estimator) Disjunctions() []expr.Disjunction { return e.disjs }

// Classes exposes the j-equivalence classes.
func (e *Estimator) Classes() *eqclass.Classes { return e.classes }

// Config returns the estimator's configuration.
func (e *Estimator) Config() Config { return e.cfg }

// Catalog returns the catalog the estimator was built over (the optimizer
// consults it for physical properties such as indexes).
func (e *Estimator) Catalog() *catalog.Catalog { return e.cat }

// Tables returns the query's table references, in table-number order.
func (e *Estimator) Tables() []TableRef { return slices.Clone(e.refs) }

// TableNumber resolves an alias (case-insensitively) to its table number.
func (e *Estimator) TableNumber(alias string) (int, bool) {
	for t, tr := range e.refs {
		if strings.EqualFold(tr.Name(), alias) {
			return t, true
		}
	}
	return 0, false
}

// Table returns table number t's effective and raw statistics and its local
// predicates (constant and same-table column comparisons) in predicate-set
// order, nil if none. All are shared: callers must not modify them.
func (e *Estimator) Table(t int) (*selest.EffectiveStats, *catalog.TableStats, []expr.Predicate) {
	return e.eff[t], e.base[t], e.locals[t]
}

// Effective returns the effective statistics of the aliased table.
func (e *Estimator) Effective(alias string) (*selest.EffectiveStats, error) {
	if t, ok := e.TableNumber(alias); ok {
		return e.eff[t], nil
	}
	return nil, fmt.Errorf("cardest: unknown table alias %q", alias)
}

// BaseSize returns the effective cardinality ‖R‖′ of one table: the
// starting size of an incremental estimation.
func (e *Estimator) BaseSize(alias string) (float64, error) {
	eff, err := e.Effective(alias)
	if err != nil {
		return 0, err
	}
	return eff.Card, nil
}

// equation2 is Equation 2's join selectivity S_J = 1/max(d₁′, d₂′) of an
// equality between two columns, from their effective column cardinalities.
// With Sel.HistogramJoins enabled and histograms on both columns, the
// histogram-based estimate is used instead (beyond-paper extension for
// skewed data).
func (e *Estimator) equation2(l, r *column) float64 {
	if e.cfg.Sel.HistogramJoins {
		if s, ok := selest.HistogramJoinSelectivity(l.stats.Hist, r.stats.Hist); ok {
			return s
		}
	}
	d := l.card
	if r.card > d {
		d = r.card
	}
	if d <= 0 {
		return 0
	}
	return 1 / d
}

// computeRepresentatives assigns each multi-member class its fixed
// selectivity per the configured RepChoice.
func (e *Estimator) computeRepresentatives() {
	groups, _ := e.classes.Groups()
	for _, class := range groups {
		if len(class) < 2 {
			continue
		}
		ds := make([]float64, len(class))
		for i, id := range class {
			ds[i] = e.cols[id].card
		}
		sort.Float64s(ds)
		id := e.classes.ClassOf(class[0])
		rank, ok := slices.BinarySearchFunc(e.groups, id, func(g joinGroup, id string) int { return strings.Compare(g.id, id) })
		if !ok {
			continue // no join predicate of the class is in the set
		}
		// RepLargest is the largest pairwise selectivity, 1/max(two
		// smallest d); RepSmallest the smallest, 1/(largest d).
		d := ds[len(ds)-1]
		if e.cfg.Rep == RepLargest {
			d = ds[1]
		}
		if d > 0 {
			e.groups[rank].rep, e.groups[rank].hasRep = 1/d, true
		}
	}
}
