package closure_test

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/closure"
	"repro/internal/expr"
	"repro/internal/querygen"
	"repro/internal/storage"
)

// refClasses is the string-keyed union-find that equivalence classes were
// before they numbered their columns: every structure is a map keyed by the
// lower-cased "table.column", and a class id is found by scanning every
// registered key.
type refClasses struct {
	parent map[string]string
	size   map[string]int
	refs   map[string]expr.ColumnRef // key -> first spelling
	order  []string
}

func newRefClasses() *refClasses {
	return &refClasses{parent: map[string]string{}, size: map[string]int{}, refs: map[string]expr.ColumnRef{}}
}

func (c *refClasses) add(ref expr.ColumnRef) {
	k := ref.Key()
	if _, ok := c.parent[k]; ok {
		return
	}
	c.parent[k], c.size[k], c.refs[k] = k, 1, ref
	c.order = append(c.order, k)
}

func (c *refClasses) find(k string) string {
	for c.parent[k] != k {
		k = c.parent[k]
	}
	return k
}

func (c *refClasses) union(a, b expr.ColumnRef) {
	c.add(a)
	c.add(b)
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

func (c *refClasses) classID(ref expr.ColumnRef) string {
	if _, ok := c.parent[ref.Key()]; !ok {
		return ref.Key()
	}
	root, least := c.find(ref.Key()), ""
	for _, k := range c.order {
		if c.find(k) == root && (least == "" || k < least) {
			least = k
		}
	}
	return least
}

func (c *refClasses) members(ref expr.ColumnRef) []expr.ColumnRef {
	if _, ok := c.parent[ref.Key()]; !ok {
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

func (c *refClasses) all() [][]expr.ColumnRef {
	groups := map[string][]expr.ColumnRef{}
	for _, k := range c.order {
		groups[c.find(k)] = append(groups[c.find(k)], c.refs[k])
	}
	var out [][]expr.ColumnRef
	for _, g := range groups {
		if len(g) > 1 {
			sort.Slice(g, func(i, j int) bool { return g[i].Key() < g[j].Key() })
			out = append(out, g)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Key() < out[j][0].Key() })
	return out
}

// refCompute is closure as it ran on those maps: duplicates dropped by
// CanonicalKey, implied predicates deduplicated against a set of rendered
// keys.
func refCompute(preds []expr.Predicate, close bool) (closed, implied []expr.Predicate, classes *refClasses) {
	orig := expr.Dedup(preds)
	classes = newRefClasses()
	for _, p := range orig {
		switch {
		case p.RightIsColumn && p.Op == expr.OpEQ:
			classes.union(p.Left, p.Right)
		case p.RightIsColumn:
			classes.add(p.Left)
			classes.add(p.Right)
		default:
			classes.add(p.Left)
		}
	}
	if !close {
		return orig, nil, classes
	}
	seen := map[string]bool{}
	for _, p := range orig {
		seen[p.CanonicalKey()] = true
	}
	emit := func(p expr.Predicate) {
		if k := p.CanonicalKey(); !seen[k] {
			seen[k] = true
			implied = append(implied, p)
		}
	}
	for _, class := range classes.all() {
		for i := range class {
			for j := i + 1; j < len(class); j++ {
				emit(expr.NewJoin(class[i], expr.OpEQ, class[j]).Normalize())
			}
		}
	}
	for _, p := range orig {
		if p.Kind() != expr.KindLocalConst {
			continue
		}
		for _, m := range classes.members(p.Left) {
			if !m.SameAs(p.Left) {
				emit(expr.NewConst(m, p.Op, p.Const))
			}
		}
	}
	return append(append([]expr.Predicate{}, orig...), implied...), implied, classes
}

// matchReference holds Compute (and Dedup) to the string-keyed reference:
// the same predicates in the same order and spelling, the same implied
// ones, the same classes, members and class ids for every column, and
// operand ids that name each predicate's columns. PTC must not depend on
// the order its input comes in: a permutation of preds, seeded by the
// label, closes to the same predicates, implied predicates and classes,
// compared as sets.
func matchReference(t *testing.T, label string, preds []expr.Predicate) {
	t.Helper()
	h := fnv.New64a()
	h.Write([]byte(label))
	shuffled := slices.Clone(preds)
	rand.New(rand.NewSource(int64(h.Sum64()))).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	a, b := closure.Compute(preds), closure.Compute(shuffled)
	if x, y := predicateKeys(a.Predicates), predicateKeys(b.Predicates); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: closes to %v, permuted to %v", label, x, y)
	}
	if x, y := predicateKeys(a.Implied), predicateKeys(b.Implied); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: implies %v, permuted %v", label, x, y)
	}
	if x, y := classKeys(a.Classes.All()), classKeys(b.Classes.All()); !reflect.DeepEqual(x, y) {
		t.Fatalf("%s: classes %v, permuted %v", label, x, y)
	}
	for _, close := range []bool{true, false} {
		got := closure.Dedup(preds)
		if close {
			got = closure.Compute(preds)
		}
		want, implied, classes := refCompute(preds, close)
		if !reflect.DeepEqual(got.Predicates, want) || !reflect.DeepEqual(got.Implied, implied) {
			t.Fatalf("%s (closure %v):\n got  %v\n      implied %v\n want %v\n      implied %v", label, close, got.Predicates, got.Implied, want, implied)
		}
		if a, b := got.Classes.All(), classes.all(); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: All() = %v, reference %v", label, a, b)
		}
		if len(got.Operands) != len(got.Predicates) {
			t.Fatalf("%s: %d operand pairs for %d predicates", label, len(got.Operands), len(got.Predicates))
		}
		for i, p := range got.Predicates {
			ops := got.Operands[i]
			if got.Classes.Key(ops.Left) != p.Left.Key() || p.RightIsColumn != (ops.Right >= 0) ||
				p.RightIsColumn && got.Classes.Key(ops.Right) != p.Right.Key() {
				t.Fatalf("%s: operands %+v do not name the columns of %s", label, ops, p)
			}
		}
		refs := []expr.ColumnRef{{Table: "Unregistered", Column: "Ref"}}
		for _, k := range classes.order {
			refs = append(refs, classes.refs[k], expr.ColumnRef{Table: strings.ToUpper(classes.refs[k].Table), Column: classes.refs[k].Column})
		}
		for _, ref := range refs {
			if a, b := got.Classes.ClassID(ref), classes.classID(ref); a != b {
				t.Fatalf("%s: ClassID(%s) = %q, reference %q", label, ref, a, b)
			}
			if a, b := got.Classes.Members(ref), classes.members(ref); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: Members(%s) = %v, reference %v", label, ref, a, b)
			}
		}
	}
}

// predicateKeys is the sorted set of the predicates' canonical keys.
func predicateKeys(preds []expr.Predicate) []string {
	keys := make([]string, len(preds))
	for i, p := range preds {
		keys[i] = p.CanonicalKey()
	}
	slices.Sort(keys)
	return keys
}

// classKeys renders classes, each sorted by key, by their members' keys.
func classKeys(classes [][]expr.ColumnRef) [][]string {
	out := make([][]string, len(classes))
	for i, class := range classes {
		for _, ref := range class {
			out[i] = append(out[i], ref.Key())
		}
	}
	return out
}

func TestClosureMatchesStringReference(t *testing.T) {
	col := func(table, column string) expr.ColumnRef { return expr.ColumnRef{Table: table, Column: column} }
	eq := func(a, b expr.ColumnRef) expr.Predicate { return expr.NewJoin(a, expr.OpEQ, b) }
	lt := func(a expr.ColumnRef, v int64) expr.Predicate { return expr.NewConst(a, expr.OpLT, storage.Int64(v)) }
	for name, preds := range map[string][]expr.Predicate{
		"mixed-case duplicates": {eq(col("R", "X"), col("s", "y")), eq(col("r", "x"), col("S", "Y")), eq(col("S", "y"), col("r", "X"))},
		"self-equality":         {eq(col("R", "x"), col("R", "x")), eq(col("R", "x"), col("S", "y"))},
		"same-table equalities": {eq(col("R", "x"), col("R", "y")), eq(col("R", "y"), col("R", "z")), eq(col("R", "z"), col("S", "w"))},
		"constants on every member": {
			eq(col("A", "a"), col("B", "b")), eq(col("B", "b"), col("C", "c")),
			lt(col("A", "a"), 5), lt(col("b", "B"), 5), lt(col("C", "c"), 5), lt(col("C", "c"), 7),
			expr.NewConst(col("B", "b"), expr.OpEQ, storage.Float64(5)), expr.NewConst(col("a", "A"), expr.OpGE, storage.String64("x")),
		},
		"inequalities and constants": {
			expr.NewJoin(col("A", "a"), expr.OpLT, col("B", "b")), expr.NewJoin(col("B", "b"), expr.OpGT, col("A", "a")),
			lt(col("A", "a"), 3), eq(col("A", "a"), col("C", "c")),
		},
		"empty": nil,
	} {
		matchReference(t, name, preds)
	}
	for seed := int64(0); seed < 500; seed++ {
		matchReference(t, fmt.Sprintf("querygen seed %d", seed), querygen.Generate(seed).Preds)
	}
	// Denser shapes than querygen's chains: equalities and comparisons
	// among a few columns spelled in either case, constants, duplicates.
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 500; trial++ {
		pick := func() expr.ColumnRef {
			c := col(fmt.Sprintf("t%d", rng.Intn(3)), fmt.Sprintf("c%d", rng.Intn(3)))
			if rng.Intn(2) == 0 {
				c.Table = strings.ToUpper(c.Table)
			}
			return c
		}
		var preds []expr.Predicate
		for i, n := 0, rng.Intn(9); i < n; i++ {
			switch rng.Intn(4) {
			case 0:
				preds = append(preds, expr.NewConst(pick(), expr.CompareOp(rng.Intn(6)), storage.Int64(int64(rng.Intn(3)))))
			case 1:
				preds = append(preds, expr.NewJoin(pick(), expr.CompareOp(rng.Intn(6)), pick()))
			default:
				preds = append(preds, eq(pick(), pick()))
			}
		}
		matchReference(t, fmt.Sprintf("random trial %d: %v", trial, preds), preds)
	}
}
