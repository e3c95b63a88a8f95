package cardest

import (
	"fmt"
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
// construction. A Payload of type func(*catalog.TableStats) corrupts each
// table's cloned statistics before sanitization, exercising the graceful
// degradation path end to end.
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
// Table i of Tables() is table number i, and bit i of a joined-set mask.
type Estimator struct {
	cfg      Config
	cat      *catalog.Catalog
	refs     []TableRef
	preds    []expr.Predicate // the (possibly closed) predicate set
	disjs    []expr.Disjunction
	implied  []expr.Predicate
	classes  *eqclass.Classes
	number   map[string]int                    // lower-cased alias -> table number
	eff      map[string]*selest.EffectiveStats // keyed by lower-cased alias
	base     map[string]*catalog.TableStats    // alias -> stats (renamed clone)
	cards    []float64                         // effective cardinality by table number
	joins    []joinPred                        // step 5, in predicate-set order
	byGroup  []int32                           // positions in joins, stably sorted by group
	groups   []joinGroup                       // by group rank
	warnings []string                          // statistics repairs applied during construction
}

// joinPred is ELS step 5 for one join predicate, reduced to what an
// incremental step reads.
type joinPred struct {
	// pred is the predicate's position in the predicate set.
	pred int32
	// tables holds the bits of the two tables the predicate links.
	tables uint64
	// sel is JoinSelectivity of the predicate.
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
	e := &Estimator{
		cfg:    cfg,
		cat:    cat,
		number: make(map[string]int, len(tables)),
		eff:    make(map[string]*selest.EffectiveStats, len(tables)),
		base:   make(map[string]*catalog.TableStats, len(tables)),
	}

	// The construction probe can fail the estimator outright or hand back
	// a statistics corruptor to be applied to every cloned table below.
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

	// Resolve tables; clone stats under the alias name so predicate
	// References checks work against aliases. The clones are sanitized so
	// that corrupt catalog statistics (NaN, negative, zero column
	// cardinalities) degrade to paper defaults instead of propagating.
	for i, tr := range tables {
		alias := tr.Name()
		k := strings.ToLower(alias)
		if _, dup := e.number[k]; dup {
			return nil, fmt.Errorf("cardest: duplicate table alias %q", alias)
		}
		e.number[k] = i
		ts := cat.Table(tr.Table)
		if ts == nil {
			return nil, fmt.Errorf("cardest: unknown table %q", tr.Table)
		}
		clone := ts.Clone()
		clone.Name = alias
		if corrupt != nil {
			corrupt(clone)
		}
		e.warnings = append(e.warnings, sanitizeStats(clone)...)
		e.base[k] = clone
		e.refs = append(e.refs, tr)
	}

	// Step 1 (dedup) and step 2 (transitive closure).
	deduped := expr.Dedup(preds)
	if cfg.ApplyClosure {
		res := closure.Compute(deduped)
		e.preds = res.Predicates
		e.implied = res.Implied
		e.classes = res.Classes
	} else {
		e.preds = deduped
		e.classes = eqclass.FromPredicates(deduped)
	}

	// Validate predicate references.
	for _, p := range e.preds {
		if err := e.checkRef(p.Left); err != nil {
			return nil, err
		}
		if p.RightIsColumn {
			if err := e.checkRef(p.Right); err != nil {
				return nil, err
			}
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
			if err := e.checkRef(p.Left); err != nil {
				return nil, err
			}
			if p.RightIsColumn {
				if err := e.checkRef(p.Right); err != nil {
					return nil, err
				}
			}
		}
	}

	// Steps 3–4: local selectivities and effective statistics per table.
	for _, tr := range e.refs {
		alias := tr.Name()
		k := strings.ToLower(alias)
		locals := closure.LocalPredicatesOf(e.preds, alias)
		var eff *selest.EffectiveStats
		var err error
		tableDisjs := expr.DisjunctionsOf(e.disjs, alias)
		if cfg.UseEffectiveStats {
			eff, err = selest.EffectiveTable(e.base[k], locals, tableDisjs)
		} else {
			eff, err = standardEffective(e.base[k], locals, tableDisjs)
		}
		if err != nil {
			return nil, err
		}
		e.eff[k] = eff
		e.cards = append(e.cards, eff.Card)
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
// bits and its group. Groups are ranked in id order, and byGroup lists the
// predicates group by group, so a step that walks byGroup multiplies groups
// in id order and predicates in predicate-set order.
func (e *Estimator) computeJoinSelectivities() error {
	var joins []joinPred
	var ids []string
	for i, p := range e.preds {
		if p.Kind() != expr.KindJoin {
			continue
		}
		sel, err := e.JoinSelectivity(p)
		if err != nil {
			return err
		}
		var id string
		if p.Op == expr.OpEQ {
			id = e.classes.ClassID(p.Left)
		} else {
			id = p.CanonicalKey()
		}
		l, _ := e.TableNumber(p.Left.Table)
		r, _ := e.TableNumber(p.Right.Table)
		joins = append(joins, joinPred{pred: int32(i), tables: 1<<l | 1<<r, sel: sel, eq: p.Op == expr.OpEQ})
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
	e.joins, e.byGroup, e.groups = joins, byGroup, groups
	return nil
}

func (e *Estimator) checkRef(ref expr.ColumnRef) error {
	k := strings.ToLower(ref.Table)
	ts, ok := e.base[k]
	if !ok {
		return fmt.Errorf("cardest: predicate references unknown table %q", ref.Table)
	}
	if ts.Column(ref.Column) == nil {
		return fmt.Errorf("cardest: table %q has no column %q", ref.Table, ref.Column)
	}
	return nil
}

// standardEffective models "the standard algorithm most commonly in use in
// current relational systems" (Section 8): local predicates reduce the
// table cardinality, but join selectivities are computed independent of
// their effect — column cardinalities stay raw.
func standardEffective(ts *catalog.TableStats, locals []expr.Predicate, disjs []expr.Disjunction) (*selest.EffectiveStats, error) {
	eff := &selest.EffectiveStats{
		Table:            ts.Name,
		OrigCard:         ts.Card,
		Card:             ts.Card,
		LocalSelectivity: 1,
		ColCard:          make(map[string]float64, len(ts.Columns)),
		ColSel:           make(map[string]float64),
	}
	for k, cs := range ts.Columns {
		eff.ColCard[k] = cs.Distinct
	}
	var consts []expr.Predicate
	for _, p := range locals {
		switch p.Kind() {
		case expr.KindLocalConst:
			consts = append(consts, p)
		case expr.KindLocalColCol:
			// No special casing (Section 3.2: "current query optimizers do not
			// treat this as a special case"): apply a flat selectivity.
			l := ts.Column(p.Left.Column)
			r := ts.Column(p.Right.Column)
			if l == nil || r == nil {
				return nil, fmt.Errorf("cardest: table %s missing column in %s", ts.Name, p)
			}
			if p.Op == expr.OpEQ {
				d := l.Distinct
				if r.Distinct > d {
					d = r.Distinct
				}
				if d > 0 {
					eff.Card /= d
				}
			} else {
				eff.Card /= 3
			}
		default:
			return nil, fmt.Errorf("cardest: %s is not a local predicate of %s", p, ts.Name)
		}
	}
	for _, set := range selest.GroupConstPredicates(consts) {
		cs := ts.Column(set.Column.Column)
		if cs == nil {
			return nil, fmt.Errorf("cardest: table %s has no column %q", ts.Name, set.Column.Column)
		}
		sel, err := set.Resolve(cs)
		if err != nil {
			return nil, err
		}
		eff.ColSel[strings.ToLower(set.Column.Column)] = sel
		eff.Card *= sel
	}
	for _, d := range disjs {
		sel, err := selest.DisjunctionSelectivity(ts, d)
		if err != nil {
			return nil, err
		}
		eff.Card *= sel
	}
	if eff.OrigCard > 0 {
		eff.LocalSelectivity = eff.Card / eff.OrigCard
	}
	return eff, nil
}

// Predicates returns the predicate set the estimator works with (closed if
// the config applies closure). The optimizer plans with this same set so
// that implied local predicates generated by ELS are available for early
// selection, mirroring the paper's experiment.
func (e *Estimator) Predicates() []expr.Predicate { return e.preds }

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
func (e *Estimator) Tables() []TableRef {
	out := make([]TableRef, len(e.refs))
	copy(out, e.refs)
	return out
}

// TableNumber resolves an alias (case-insensitively) to its table number.
func (e *Estimator) TableNumber(alias string) (int, bool) {
	t, ok := e.number[strings.ToLower(alias)]
	return t, ok
}

// Effective returns the effective statistics of the aliased table.
func (e *Estimator) Effective(alias string) (*selest.EffectiveStats, error) {
	if eff, ok := e.eff[strings.ToLower(alias)]; ok {
		return eff, nil
	}
	return nil, fmt.Errorf("cardest: unknown table alias %q", alias)
}

// BaseStats returns the raw (unreduced) statistics of the aliased table,
// for access-cost calculations (Section 5: "the original, unreduced table
// and column cardinalities are retained for use in cost calculations").
func (e *Estimator) BaseStats(alias string) (*catalog.TableStats, error) {
	if ts, ok := e.base[strings.ToLower(alias)]; ok {
		return ts, nil
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

// JoinSelectivity computes Equation 2's S_J = 1/max(d₁′, d₂′) for an
// equality join predicate, using the effective column cardinalities.
// Non-equality join predicates get the classic 1/3 heuristic (the paper
// restricts itself to equality joins). With Sel.HistogramJoins enabled and
// histograms present on both columns, the histogram-based estimate is used
// instead (beyond-paper extension for skewed data).
func (e *Estimator) JoinSelectivity(p expr.Predicate) (float64, error) {
	if p.Kind() != expr.KindJoin {
		return 0, fmt.Errorf("cardest: %s is not a join predicate", p)
	}
	if p.Op != expr.OpEQ {
		return 1.0 / 3.0, nil
	}
	if e.cfg.Sel.HistogramJoins {
		if s, ok := e.histogramJoinSelectivity(p); ok {
			return s, nil
		}
	}
	dl, err := e.effColCard(p.Left)
	if err != nil {
		return 0, err
	}
	dr, err := e.effColCard(p.Right)
	if err != nil {
		return 0, err
	}
	d := dl
	if dr > d {
		d = dr
	}
	if d <= 0 {
		return 0, nil
	}
	return 1 / d, nil
}

// histogramJoinSelectivity applies the uniformity-relaxed histogram join
// estimate when both columns carry histograms.
func (e *Estimator) histogramJoinSelectivity(p expr.Predicate) (float64, bool) {
	lStats, ok := e.base[strings.ToLower(p.Left.Table)]
	if !ok {
		return 0, false
	}
	rStats, ok := e.base[strings.ToLower(p.Right.Table)]
	if !ok {
		return 0, false
	}
	lc := lStats.Column(p.Left.Column)
	rc := rStats.Column(p.Right.Column)
	if lc == nil || rc == nil {
		return 0, false
	}
	return selest.HistogramJoinSelectivity(lc.Hist, rc.Hist)
}

func (e *Estimator) effColCard(ref expr.ColumnRef) (float64, error) {
	eff, err := e.Effective(ref.Table)
	if err != nil {
		return 0, err
	}
	return eff.ColumnCard(ref.Column)
}

// computeRepresentatives assigns each multi-member class its fixed
// selectivity per the configured RepChoice.
func (e *Estimator) computeRepresentatives() {
	for _, class := range e.classes.All() {
		var ds []float64
		for _, ref := range class {
			if d, err := e.effColCard(ref); err == nil {
				ds = append(ds, d)
			}
		}
		if len(ds) < 2 {
			continue
		}
		sort.Float64s(ds)
		id := e.classes.ClassID(class[0])
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
