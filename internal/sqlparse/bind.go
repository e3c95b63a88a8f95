package sqlparse

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

// Bind resolves the query's column references against the catalog:
// unqualified columns (the paper writes "s = m AND s < 100") are bound to
// the unique FROM-clause table exposing that column; qualified references
// are validated. Bind mutates the query in place and returns an error on
// unknown tables, unknown or ambiguous columns, and duplicate aliases — and,
// where the tables have data whose column types are known, on comparisons
// storage.Compare cannot make and on SUM or AVG of a non-numeric column.
func Bind(q *Query, cat *catalog.Catalog) error {
	if q == nil || cat == nil {
		return fmt.Errorf("sqlparse: Bind requires a query and a catalog")
	}
	if len(q.Tables) == 0 {
		return fmt.Errorf("sqlparse: query has no tables")
	}
	stats := make([]*catalog.TableStats, len(q.Tables))
	names := make([]string, len(q.Tables))
	for t, item := range q.Tables {
		if stats[t] = cat.Table(item.Table); stats[t] == nil {
			return fmt.Errorf("sqlparse: unknown table %q", item.Table)
		}
		names[t] = item.Name()
		for _, prev := range names[:t] {
			if strings.EqualFold(prev, names[t]) {
				return fmt.Errorf("sqlparse: duplicate table name or alias %q", item.Name())
			}
		}
	}

	// resolve qualifies ref and returns its table's position in the FROM
	// list.
	resolve := func(ref *expr.ColumnRef) (int, error) {
		if ref.Table != "" {
			t := slices.IndexFunc(names, func(name string) bool { return strings.EqualFold(name, ref.Table) })
			switch {
			case t < 0:
				return 0, fmt.Errorf("sqlparse: column %s references table %q not in FROM clause", ref, ref.Table)
			case stats[t].Column(ref.Column) == nil:
				return 0, fmt.Errorf("sqlparse: table %q has no column %q", ref.Table, ref.Column)
			}
			return t, nil
		}
		var found []string
		at := -1
		for t, name := range names {
			if stats[t].Column(ref.Column) != nil {
				found, at = append(found, name), t
			}
		}
		switch len(found) {
		case 0:
			return 0, fmt.Errorf("sqlparse: column %q not found in any FROM table", ref.Column)
		case 1:
			ref.Table = found[0]
			return at, nil
		default:
			return 0, fmt.Errorf("sqlparse: column %q is ambiguous (tables %s)", ref.Column, strings.Join(found, ", "))
		}
	}
	// bind is resolve for a column the query's result reads: it also finds
	// the column's ordinal in its table's data.
	bind := func(ref *expr.ColumnRef) (ColumnID, error) {
		t, err := resolve(ref)
		if err != nil {
			return ColumnID{}, err
		}
		id := ColumnID{Table: t, Ord: -1}
		if data := cat.Data(q.Tables[t].Table); data != nil {
			id.Ord = data.Schema().ColumnIndex(ref.Column)
		}
		return id, nil
	}

	q.ProjectionIDs = make([]ColumnID, len(q.Projection))
	for i := range q.Projection {
		var err error
		if q.ProjectionIDs[i], err = bind(&q.Projection[i]); err != nil {
			return err
		}
	}
	q.GroupByIDs = make([]ColumnID, len(q.GroupBy))
	for i := range q.GroupBy {
		var err error
		if q.GroupByIDs[i], err = bind(&q.GroupBy[i]); err != nil {
			return err
		}
	}
	for i := range q.Select {
		if q.Select[i].Star {
			continue
		}
		var err error
		if q.Select[i].ID, err = bind(&q.Select[i].Col); err != nil {
			return err
		}
	}
	// Aggregate-query validation: every plain select item must be a
	// grouping column.
	if len(q.Select) > 0 {
		inGroup := func(ref expr.ColumnRef) bool {
			for _, g := range q.GroupBy {
				if g.SameAs(ref) {
					return true
				}
			}
			return false
		}
		for _, it := range q.Select {
			if it.Agg == AggNone && !inGroup(it.Col) {
				return fmt.Errorf("sqlparse: column %s must appear in GROUP BY or inside an aggregate", it.Col)
			}
		}
	}
	for i := range q.Where {
		if _, err := resolve(&q.Where[i].Left); err != nil {
			return err
		}
		if q.Where[i].RightIsColumn {
			if _, err := resolve(&q.Where[i].Right); err != nil {
				return err
			}
		}
	}
	for i := range q.Disjunctions {
		for j := range q.Disjunctions[i].Preds {
			p := &q.Disjunctions[i].Preds[j]
			if _, err := resolve(&p.Left); err != nil {
				return err
			}
			if p.RightIsColumn {
				if _, err := resolve(&p.Right); err != nil {
					return err
				}
			}
		}
		// Re-validate now that tables are bound: OR-groups must cover a
		// single table and contain no join predicates.
		d, err := expr.NewDisjunction(q.Disjunctions[i].Preds)
		if err != nil {
			return fmt.Errorf("sqlparse: %w", err)
		}
		q.Disjunctions[i] = d
	}
	return checkTypes(q, cat)
}

// checkTypes rejects what would otherwise fail only in execution: a
// comparison of types storage.Compare refuses, and SUM or AVG of a
// non-numeric column. A column of a table without data (declared
// statistics) has no known type and passes.
func checkTypes(q *Query, cat *catalog.Catalog) error {
	data := make([]*storage.Table, len(q.Tables))
	for i, item := range q.Tables {
		data[i] = cat.Data(item.Table)
	}
	typeOf := func(ref expr.ColumnRef) (storage.Type, bool) {
		for i, item := range q.Tables {
			if data[i] != nil && strings.EqualFold(item.Name(), ref.Table) {
				if c := data[i].Schema().ColumnIndex(ref.Column); c >= 0 {
					return data[i].Schema().Column(c).Type, true
				}
			}
		}
		return 0, false
	}
	check := func(p expr.Predicate) error {
		lt, lok := typeOf(p.Left)
		rt, rok := p.Const.Type(), !p.Const.IsNull() // NULL compares with nothing, whatever its type
		if p.RightIsColumn {
			rt, rok = typeOf(p.Right)
		}
		if lok && rok && !storage.Comparable(lt, rt) {
			return fmt.Errorf("sqlparse: %s compares %s with %s", p, lt, rt)
		}
		return nil
	}
	for _, p := range q.Where {
		if err := check(p); err != nil {
			return err
		}
	}
	for _, d := range q.Disjunctions {
		for _, p := range d.Preds {
			if err := check(p); err != nil {
				return err
			}
		}
	}
	for _, it := range q.Select {
		t, ok := typeOf(it.Col)
		if ok && (it.Agg == AggSum || it.Agg == AggAvg) && t != storage.TypeInt64 && t != storage.TypeFloat64 {
			return fmt.Errorf("sqlparse: %s of %s column %s", it.Agg, t, it.Col)
		}
	}
	return nil
}

// ParseAndBind parses the SQL text and binds it against the catalog in one
// step.
func ParseAndBind(input string, cat *catalog.Catalog) (*Query, error) {
	q, err := Parse(input)
	if err != nil {
		return nil, err
	}
	if err := Bind(q, cat); err != nil {
		return nil, err
	}
	return q, nil
}
