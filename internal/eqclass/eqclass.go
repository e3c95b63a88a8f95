// Package eqclass maintains equivalence classes of join columns
// ("j-equivalence" in the paper). Initially each column is a class by
// itself; every equality predicate seen merges the classes of its two
// columns (Section 2).
//
// Classes is also the query's column registry: it numbers each column the
// first time it sees it, and ELS steps 1–5 index columns by that dense id.
// The union-find runs on the ids, with union by size and no path
// compression: every query method only reads, so the classes are read-only
// after construction and may be shared by concurrent readers. Union by size
// alone keeps every path logarithmic.
package eqclass

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/expr"
)

// Classes is a disjoint-set structure over column references, numbered
// 0, 1, … in registration order.
type Classes struct {
	ids  map[string]int32 // column key -> id
	cols []column         // by id
}

type column struct {
	ref expr.ColumnRef // the first spelling registered
	key string         // ref.Key()
	// parent is the next id towards the class root. size and least, the
	// member whose key is smallest, are kept at roots.
	parent, size, least int32
}

// Operands are the column ids of a predicate's operands; Right is -1 when
// the right-hand side is a constant.
type Operands struct{ Left, Right int32 }

// New returns an empty equivalence-class structure; it allocates nothing
// until the first Add.
func New() *Classes { return &Classes{} }

// Add registers a column as its own singleton class if it is not already
// known, and returns its id.
func (c *Classes) Add(ref expr.ColumnRef) int32 {
	k := ref.Key()
	if id, ok := c.ids[k]; ok {
		return id
	} else if c.ids == nil {
		c.ids = make(map[string]int32)
	}
	id := int32(len(c.cols))
	c.ids[k] = id
	c.cols = append(c.cols, column{ref: ref, key: k, parent: id, size: 1, least: id})
	return id
}

// Contains reports whether the column has been registered.
func (c *Classes) Contains(ref expr.ColumnRef) bool {
	_, ok := c.ids[ref.Key()]
	return ok
}

// Len returns the number of registered columns: ids run from 0 to Len()−1.
func (c *Classes) Len() int { return len(c.cols) }

// Ref returns the first spelling registered for column id.
func (c *Classes) Ref(id int32) expr.ColumnRef { return c.cols[id].ref }

// Key returns the canonical key of column id.
func (c *Classes) Key(id int32) string { return c.cols[id].key }

func (c *Classes) find(id int32) int32 {
	for c.cols[id].parent != id {
		id = c.cols[id].parent
	}
	return id
}

// join merges the classes of two registered columns.
func (c *Classes) join(a, b int32) {
	ra, rb := c.find(a), c.find(b)
	if ra == rb {
		return
	}
	if c.cols[ra].size < c.cols[rb].size {
		ra, rb = rb, ra
	}
	root, other := &c.cols[ra], &c.cols[rb]
	other.parent = ra
	root.size += other.size
	if c.cols[other.least].key < c.cols[root.least].key {
		root.least = other.least
	}
}

// Union merges the classes of a and b, registering them if needed.
func (c *Classes) Union(a, b expr.ColumnRef) { c.join(c.Add(a), c.Add(b)) }

// Same reports whether a and b are j-equivalent. Unregistered columns are
// equivalent only to themselves.
func (c *Classes) Same(a, b expr.ColumnRef) bool { return c.ClassID(a) == c.ClassID(b) }

// ClassOf returns the class id of column id: the smallest key in its class.
func (c *Classes) ClassOf(id int32) string { return c.cols[c.cols[c.find(id)].least].key }

// ClassID returns a stable identifier of the class containing ref: the
// lexicographically smallest key in the class. Unregistered refs return
// their own key.
func (c *Classes) ClassID(ref expr.ColumnRef) string {
	if id, ok := c.ids[ref.Key()]; ok {
		return c.ClassOf(id)
	}
	return ref.Key()
}

// Groups returns every class, singletons included, as its members' ids
// sorted by key, with classes ordered by their smallest key; of[id] is the
// position of column id's class.
func (c *Classes) Groups() (groups [][]int32, of []int32) {
	ids := make([]int32, 2*len(c.cols))
	ids, of = ids[:len(c.cols)], ids[len(c.cols):]
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(a, b int32) int {
		return cmp.Or(strings.Compare(c.ClassOf(a), c.ClassOf(b)), strings.Compare(c.cols[a].key, c.cols[b].key))
	})
	for i, start := 0, 0; i < len(ids); i++ {
		if i+1 == len(ids) || c.ClassOf(ids[i+1]) != c.ClassOf(ids[i]) {
			for _, id := range ids[start : i+1] {
				of[id] = int32(len(groups))
			}
			groups, start = append(groups, ids[start:i+1:i+1]), i+1
		}
	}
	return groups, of
}

// Members returns the columns j-equivalent to ref (including itself),
// sorted by key.
func (c *Classes) Members(ref expr.ColumnRef) []expr.ColumnRef {
	if id, ok := c.ids[ref.Key()]; ok {
		groups, of := c.Groups()
		return c.refs(groups[of[id]])
	}
	return []expr.ColumnRef{ref}
}

func (c *Classes) refs(ids []int32) []expr.ColumnRef {
	out := make([]expr.ColumnRef, len(ids))
	for i, id := range ids {
		out[i] = c.cols[id].ref
	}
	return out
}

// All returns every class with two or more members, each sorted by key;
// classes are ordered by their smallest member key. Singleton classes are
// omitted (they never affect join estimation).
func (c *Classes) All() [][]expr.ColumnRef {
	groups, _ := c.Groups()
	var out [][]expr.ColumnRef
	for _, g := range groups {
		if len(g) > 1 {
			out = append(out, c.refs(g))
		}
	}
	return out
}

// NumClasses returns the number of distinct classes among registered
// columns (including singletons).
func (c *Classes) NumClasses() int {
	groups, _ := c.Groups()
	return len(groups)
}

// FromPredicates builds equivalence classes from the equality predicates in
// preds (both join and local column-column equalities merge classes; local
// constant predicates only register the column). This is how ELS step 1
// builds classes "for all columns that are participating in any of the
// predicates".
func FromPredicates(preds []expr.Predicate) *Classes {
	c, _ := Build(preds)
	return c
}

// Build is FromPredicates that also returns each predicate's column ids,
// numbered in order of first occurrence, left operand first.
func Build(preds []expr.Predicate) (*Classes, []Operands) {
	c := &Classes{ids: make(map[string]int32, 2*len(preds)), cols: make([]column, 0, 2*len(preds))}
	ops := make([]Operands, len(preds))
	for i, p := range preds {
		ops[i] = Operands{c.Add(p.Left), -1}
		if p.RightIsColumn {
			ops[i].Right = c.Add(p.Right)
			if p.Op == expr.OpEQ {
				c.join(ops[i].Left, ops[i].Right)
			}
		}
	}
	return c, ops
}
