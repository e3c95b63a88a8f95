package plancache

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/sqlparse"
)

// Canonical renders a bound query as the cache key's normalized text. Two
// query texts map to the same canonical string exactly when they are the
// same query up to formatting: whitespace and keyword case (erased by the
// parser), table/alias/column case (erased by lower-casing, matching the
// binder's case-insensitive resolution), and the order of WHERE
// conjuncts and of disjuncts within an OR-group (erased by sorting —
// conjunction and disjunction are commutative, so the same rows qualify;
// only the non-semantic comparison counters can differ between orderings).
//
// Everything that changes meaning stays distinguishing: constants render
// type-tagged (Value.Key), so x = 1 and x = '1' never collide; the FROM
// list keeps its order (join-order tie-breaking and SELECT * column order
// depend on it); the select list, GROUP BY, and aggregate shapes keep
// their order. Every component is length-prefixed, so no string constant
// can forge a separator and alias two different queries onto one key.
//
// Canonical must be called on a bound query: binding qualifies every
// column with its table, which is what makes the rendering unambiguous.
// Binding consults the catalog, but the cache key pairs the canonical
// text with the catalog version, so a text that binds differently under
// two catalogs simply occupies two cache slots.
func Canonical(q *sqlparse.Query) string {
	var b strings.Builder
	b.Grow(64 + 32*(len(q.Tables)+len(q.Where)))

	b.WriteString("s:")
	switch {
	case len(q.Select) > 0:
		for _, it := range q.Select {
			target := "*"
			if !it.Star {
				target = it.Col.Key()
			}
			item(&b, "a", strconv.Itoa(int(it.Agg)), "(", target, ")")
		}
	case q.CountStar:
		item(&b, "count(*)")
	case q.Star:
		item(&b, "*")
	default:
		for _, c := range q.Projection {
			item(&b, c.Key())
		}
	}

	b.WriteString("\ng:")
	for _, c := range q.GroupBy {
		item(&b, c.Key())
	}

	b.WriteString("\nf:")
	for _, t := range q.Tables {
		table := strings.ToLower(t.Table)
		name := table
		if t.Alias != "" {
			name = strings.ToLower(t.Alias)
		}
		item(&b, strconv.Itoa(len(name)), ":", name, "=", table)
	}

	b.WriteString("\nw:")
	for _, k := range sortedKeys(q.Where) {
		item(&b, k)
	}

	b.WriteString("\no:")
	ors := make([]string, 0, len(q.Disjunctions))
	for _, d := range q.Disjunctions {
		var g strings.Builder
		for _, k := range sortedKeys(d.Preds) {
			item(&g, k)
		}
		ors = append(ors, g.String())
	}
	sort.Strings(ors)
	for _, g := range ors {
		item(&b, g)
	}
	b.WriteByte('\n')
	return b.String()
}

// sortedKeys returns the predicates' canonical keys in sorted order.
func sortedKeys(preds []expr.Predicate) []string {
	keys := make([]string, len(preds))
	for i, p := range preds {
		keys[i] = p.CanonicalKey()
	}
	sort.Strings(keys)
	return keys
}

// item appends one length-prefixed component, the concatenation of parts,
// as "<len>:<parts>".
func item(b *strings.Builder, parts ...string) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	b.WriteString(strconv.Itoa(n))
	b.WriteByte(':')
	for _, p := range parts {
		b.WriteString(p)
	}
}
