package closure

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/storage"
)

func ref(t, c string) expr.ColumnRef { return expr.ColumnRef{Table: t, Column: c} }

func keys(preds []expr.Predicate) map[string]bool {
	m := make(map[string]bool, len(preds))
	for _, p := range preds {
		m[p.CanonicalKey()] = true
	}
	return m
}

func TestRuleA_JoinJoinImpliesJoin(t *testing.T) {
	// Example 1a: (R1.x = R2.y) AND (R2.y = R3.z) => (R1.x = R3.z)
	res := Compute([]expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")),
		expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R3", "z")),
	})
	got := keys(res.Implied)
	want := expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R3", "z")).CanonicalKey()
	if !got[want] {
		t.Errorf("missing implied J3; implied = %v", res.Implied)
	}
	if len(res.Implied) != 1 {
		t.Errorf("implied = %v, want exactly 1", res.Implied)
	}
	if len(res.Predicates) != 3 {
		t.Errorf("closed set size = %d, want 3", len(res.Predicates))
	}
}

func TestRuleB_JoinJoinImpliesLocal(t *testing.T) {
	// (R1.x = R2.y) AND (R1.x = R2.w) => (R2.y = R2.w)
	res := Compute([]expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")),
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "w")),
	})
	want := expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R2", "w")).CanonicalKey()
	if !keys(res.Implied)[want] {
		t.Errorf("missing implied local predicate; implied = %v", res.Implied)
	}
	// Check the implied one really is a same-table local predicate.
	found := false
	for _, p := range res.Implied {
		if p.CanonicalKey() == want && p.Kind() == expr.KindLocalColCol {
			found = true
		}
	}
	if !found {
		t.Error("implied (R2.y = R2.w) should be KindLocalColCol")
	}
}

func TestRuleC_LocalLocalImpliesLocal(t *testing.T) {
	// (R1.x = R1.y) AND (R1.y = R1.z) => (R1.x = R1.z)
	res := Compute([]expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R1", "y")),
		expr.NewJoin(ref("R1", "y"), expr.OpEQ, ref("R1", "z")),
	})
	want := expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R1", "z")).CanonicalKey()
	if !keys(res.Implied)[want] {
		t.Errorf("missing implied (R1.x = R1.z); implied = %v", res.Implied)
	}
}

func TestRuleD_JoinLocalImpliesJoin(t *testing.T) {
	// (R1.x = R2.y) AND (R1.x = R1.v) => (R2.y = R1.v)
	res := Compute([]expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")),
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R1", "v")),
	})
	want := expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R1", "v")).CanonicalKey()
	if !keys(res.Implied)[want] {
		t.Errorf("missing implied (R2.y = R1.v); implied = %v", res.Implied)
	}
}

func TestRuleE_JoinConstImpliesConst(t *testing.T) {
	// (R1.x = R2.y) AND (R1.x < 100) => (R2.y < 100)
	res := Compute([]expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")),
		expr.NewConst(ref("R1", "x"), expr.OpLT, storage.Int64(100)),
	})
	want := expr.NewConst(ref("R2", "y"), expr.OpLT, storage.Int64(100)).CanonicalKey()
	if !keys(res.Implied)[want] {
		t.Errorf("missing implied (R2.y < 100); implied = %v", res.Implied)
	}
}

func TestRuleE_AllOperators(t *testing.T) {
	for _, op := range []expr.CompareOp{expr.OpEQ, expr.OpNE, expr.OpLT, expr.OpLE, expr.OpGT, expr.OpGE} {
		res := Compute([]expr.Predicate{
			expr.NewJoin(ref("A", "a"), expr.OpEQ, ref("B", "b")),
			expr.NewConst(ref("A", "a"), op, storage.Int64(7)),
		})
		want := expr.NewConst(ref("B", "b"), op, storage.Int64(7)).CanonicalKey()
		if !keys(res.Implied)[want] {
			t.Errorf("op %s: constant comparison not propagated", op)
		}
	}
}

func TestNoPropagationAcrossInequalityJoin(t *testing.T) {
	// A non-equality join predicate must not merge classes or propagate.
	res := Compute([]expr.Predicate{
		expr.NewJoin(ref("A", "a"), expr.OpLT, ref("B", "b")),
		expr.NewConst(ref("A", "a"), expr.OpLT, storage.Int64(5)),
	})
	if len(res.Implied) != 0 {
		t.Errorf("nothing should be implied, got %v", res.Implied)
	}
}

func TestDuplicateElimination(t *testing.T) {
	// ELS step 1: duplicate predicates collapse.
	p := expr.NewConst(ref("R1", "x"), expr.OpGT, storage.Int64(500))
	res := Compute([]expr.Predicate{p, p})
	if len(res.Predicates) != 1 {
		t.Errorf("duplicates should collapse: %v", res.Predicates)
	}
}

func TestPaperExperimentClosure(t *testing.T) {
	// Section 8: s=m AND m=b AND b=g AND s<100 expands to all six join
	// equalities plus m<100, b<100, g<100.
	res := Compute([]expr.Predicate{
		expr.NewJoin(ref("S", "s"), expr.OpEQ, ref("M", "m")),
		expr.NewJoin(ref("M", "m"), expr.OpEQ, ref("B", "b")),
		expr.NewJoin(ref("B", "b"), expr.OpEQ, ref("G", "g")),
		expr.NewConst(ref("S", "s"), expr.OpLT, storage.Int64(100)),
	})
	joins, locals := 0, 0
	for _, p := range res.Predicates {
		if p.Kind() == expr.KindJoin {
			joins++
		} else {
			locals++
		}
	}
	if joins != 6 {
		t.Errorf("closed join predicates = %d, want 6 (all pairs)", joins)
	}
	if locals != 4 {
		t.Errorf("closed local predicates = %d, want 4 (s,m,b,g < 100)", locals)
	}
	got := keys(res.Predicates)
	for _, w := range []expr.Predicate{
		expr.NewJoin(ref("S", "s"), expr.OpEQ, ref("B", "b")),
		expr.NewJoin(ref("S", "s"), expr.OpEQ, ref("G", "g")),
		expr.NewJoin(ref("M", "m"), expr.OpEQ, ref("G", "g")),
		expr.NewConst(ref("M", "m"), expr.OpLT, storage.Int64(100)),
		expr.NewConst(ref("B", "b"), expr.OpLT, storage.Int64(100)),
		expr.NewConst(ref("G", "g"), expr.OpLT, storage.Int64(100)),
	} {
		if !got[w.CanonicalKey()] {
			t.Errorf("missing %s in closure", w)
		}
	}
	if res.Classes.NumClasses() != 1 {
		t.Errorf("expected a single equivalence class, got %d", res.Classes.NumClasses())
	}
}

func TestIdempotence(t *testing.T) {
	in := []expr.Predicate{
		expr.NewJoin(ref("R1", "x"), expr.OpEQ, ref("R2", "y")),
		expr.NewJoin(ref("R2", "y"), expr.OpEQ, ref("R3", "z")),
		expr.NewConst(ref("R1", "x"), expr.OpLE, storage.Int64(10)),
	}
	first := Compute(in)
	second := Compute(first.Predicates)
	if len(second.Implied) != 0 {
		t.Errorf("closure must be a fixpoint; second pass implied %v", second.Implied)
	}
	if len(second.Predicates) != len(first.Predicates) {
		t.Errorf("fixpoint size changed: %d -> %d", len(first.Predicates), len(second.Predicates))
	}
}

// Property: the closed set is sound — every implied equality's endpoints
// were already connected by a path of input equalities (checked via a
// reference BFS), and closure of the closure adds nothing.
func TestClosureSoundCompleteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tables := []string{"A", "B", "C", "D"}
	colsOf := func(t string) []expr.ColumnRef {
		return []expr.ColumnRef{ref(t, "c0"), ref(t, "c1")}
	}
	var all []expr.ColumnRef
	for _, tb := range tables {
		all = append(all, colsOf(tb)...)
	}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(6)
		var preds []expr.Predicate
		adj := make(map[string][]string)
		connect := func(a, b expr.ColumnRef) {
			adj[a.Key()] = append(adj[a.Key()], b.Key())
			adj[b.Key()] = append(adj[b.Key()], a.Key())
		}
		for i := 0; i < n; i++ {
			a := all[rng.Intn(len(all))]
			b := all[rng.Intn(len(all))]
			if a.Key() == b.Key() {
				continue
			}
			preds = append(preds, expr.NewJoin(a, expr.OpEQ, b))
			connect(a, b)
		}
		reachable := func(from, to string) bool {
			seen := map[string]bool{from: true}
			queue := []string{from}
			for len(queue) > 0 {
				cur := queue[0]
				queue = queue[1:]
				if cur == to {
					return true
				}
				for _, nxt := range adj[cur] {
					if !seen[nxt] {
						seen[nxt] = true
						queue = append(queue, nxt)
					}
				}
			}
			return false
		}
		res := Compute(preds)
		for _, p := range res.Implied {
			if !reachable(p.Left.Key(), p.Right.Key()) {
				t.Fatalf("trial %d: unsound implication %s", trial, p)
			}
		}
		// Completeness: every connected pair appears in the closed set.
		closedKeys := keys(res.Predicates)
		for i := 0; i < len(all); i++ {
			for j := i + 1; j < len(all); j++ {
				a, b := all[i], all[j]
				if adj[a.Key()] == nil || adj[b.Key()] == nil {
					continue
				}
				if reachable(a.Key(), b.Key()) {
					k := expr.NewJoin(a, expr.OpEQ, b).CanonicalKey()
					if !closedKeys[k] {
						t.Fatalf("trial %d: missing implied equality %s = %s", trial, a, b)
					}
				}
			}
		}
		// Idempotence.
		if again := Compute(res.Predicates); len(again.Implied) != 0 {
			t.Fatalf("trial %d: closure not a fixpoint", trial)
		}
	}
}
