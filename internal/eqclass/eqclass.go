// Package eqclass maintains equivalence classes of join columns
// ("j-equivalence" in the paper). Initially each column is a class by
// itself; every equality predicate seen merges the classes of its two
// columns (Section 2). The structure is a union-find with union by size and
// no path compression: every query method only reads, so the classes are
// read-only after construction (Add, Union) and may be shared by concurrent
// readers. Union by size alone keeps every path logarithmic.
package eqclass

import (
	"sort"

	"repro/internal/expr"
)

// Classes is a disjoint-set structure over column references.
type Classes struct {
	parent map[string]string
	size   map[string]int
	refs   map[string]expr.ColumnRef // canonical key -> a representative spelling
	order  []string                  // insertion order of keys, for determinism
}

// New returns an empty equivalence-class structure.
func New() *Classes {
	return &Classes{
		parent: make(map[string]string),
		size:   make(map[string]int),
		refs:   make(map[string]expr.ColumnRef),
	}
}

// Add registers a column as its own singleton class if it is not already
// known.
func (c *Classes) Add(ref expr.ColumnRef) {
	k := ref.Key()
	if _, ok := c.parent[k]; ok {
		return
	}
	c.parent[k] = k
	c.size[k] = 1
	c.refs[k] = ref
	c.order = append(c.order, k)
}

// Contains reports whether the column has been registered.
func (c *Classes) Contains(ref expr.ColumnRef) bool {
	_, ok := c.parent[ref.Key()]
	return ok
}

func (c *Classes) find(k string) string {
	root := k
	for c.parent[root] != root {
		root = c.parent[root]
	}
	return root
}

// Union merges the classes of a and b, registering them if needed.
func (c *Classes) Union(a, b expr.ColumnRef) {
	c.Add(a)
	c.Add(b)
	ra, rb := c.find(a.Key()), c.find(b.Key())
	if ra == rb {
		return
	}
	if c.size[ra] < c.size[rb] {
		ra, rb = rb, ra
	}
	c.parent[rb] = ra
	c.size[ra] += c.size[rb]
}

// Same reports whether a and b are j-equivalent. Unregistered columns are
// equivalent only to themselves.
func (c *Classes) Same(a, b expr.ColumnRef) bool {
	if a.Key() == b.Key() {
		return true
	}
	if !c.Contains(a) || !c.Contains(b) {
		return false
	}
	return c.find(a.Key()) == c.find(b.Key())
}

// ClassID returns a stable identifier of the class containing ref: the
// lexicographically smallest key in the class. Unregistered refs return
// their own key.
func (c *Classes) ClassID(ref expr.ColumnRef) string {
	if !c.Contains(ref) {
		return ref.Key()
	}
	root := c.find(ref.Key())
	// The root is arbitrary; derive a stable ID by scanning members.
	min := ""
	for _, k := range c.order {
		if c.find(k) == root && (min == "" || k < min) {
			min = k
		}
	}
	return min
}

// Members returns the columns j-equivalent to ref (including itself),
// sorted by key.
func (c *Classes) Members(ref expr.ColumnRef) []expr.ColumnRef {
	if !c.Contains(ref) {
		return []expr.ColumnRef{ref}
	}
	root := c.find(ref.Key())
	var out []expr.ColumnRef
	for _, k := range c.order {
		if c.find(k) == root {
			out = append(out, c.refs[k])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// All returns every class with two or more members, each sorted by key;
// classes are ordered by their smallest member key. Singleton classes are
// omitted (they never affect join estimation).
func (c *Classes) All() [][]expr.ColumnRef {
	groups := make(map[string][]expr.ColumnRef)
	for _, k := range c.order {
		root := c.find(k)
		groups[root] = append(groups[root], c.refs[k])
	}
	var out [][]expr.ColumnRef
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		sort.Slice(g, func(i, j int) bool { return g[i].Key() < g[j].Key() })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Key() < out[j][0].Key() })
	return out
}

// NumClasses returns the number of distinct classes among registered
// columns (including singletons).
func (c *Classes) NumClasses() int {
	roots := make(map[string]struct{})
	for _, k := range c.order {
		roots[c.find(k)] = struct{}{}
	}
	return len(roots)
}

// FromPredicates builds equivalence classes from the equality predicates in
// preds (both join and local column-column equalities merge classes; local
// constant predicates only register the column). This is how ELS step 1
// builds classes "for all columns that are participating in any of the
// predicates".
func FromPredicates(preds []expr.Predicate) *Classes {
	c := New()
	for _, p := range preds {
		switch {
		case p.RightIsColumn && p.Op == expr.OpEQ:
			c.Union(p.Left, p.Right)
		case p.RightIsColumn:
			c.Add(p.Left)
			c.Add(p.Right)
		default:
			c.Add(p.Left)
		}
	}
	return c
}
