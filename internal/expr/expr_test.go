package expr

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/storage"
)

func ref(t, c string) ColumnRef { return ColumnRef{Table: t, Column: c} }

func TestColumnRefKeyAndString(t *testing.T) {
	r := ref("R1", "X")
	if r.Key() != "r1.x" {
		t.Errorf("Key = %q", r.Key())
	}
	if r.String() != "R1.X" {
		t.Errorf("String = %q", r.String())
	}
	if !r.SameAs(ref("r1", "x")) {
		t.Error("SameAs should be case-insensitive")
	}
	if r.SameAs(ref("r1", "y")) {
		t.Error("different columns should not be SameAs")
	}
}

func TestCompareOpString(t *testing.T) {
	want := map[CompareOp]string{OpEQ: "=", OpNE: "<>", OpLT: "<", OpLE: "<=", OpGT: ">", OpGE: ">="}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), s)
		}
		if !op.Valid() {
			t.Errorf("%s should be valid", s)
		}
	}
	if CompareOp(77).Valid() || CompareOp(77).String() != "?" {
		t.Error("invalid op handling wrong")
	}
}

func TestCompareOpFlip(t *testing.T) {
	pairs := map[CompareOp]CompareOp{OpEQ: OpEQ, OpNE: OpNE, OpLT: OpGT, OpLE: OpGE, OpGT: OpLT, OpGE: OpLE}
	for op, want := range pairs {
		if op.Flip() != want {
			t.Errorf("%s.Flip() = %s, want %s", op, op.Flip(), want)
		}
		if op.Flip().Flip() != op {
			t.Errorf("Flip should be an involution for %s", op)
		}
	}
}

func TestCompareOpHolds(t *testing.T) {
	cases := []struct {
		op   CompareOp
		cmp  int
		want bool
	}{
		{OpEQ, 0, true}, {OpEQ, -1, false},
		{OpNE, 0, false}, {OpNE, 1, true},
		{OpLT, -1, true}, {OpLT, 0, false},
		{OpLE, 0, true}, {OpLE, 1, false},
		{OpGT, 1, true}, {OpGT, 0, false},
		{OpGE, 0, true}, {OpGE, -1, false},
		{CompareOp(9), 0, false},
	}
	for _, c := range cases {
		if got := c.op.Holds(c.cmp); got != c.want {
			t.Errorf("%s.Holds(%d) = %v, want %v", c.op, c.cmp, got, c.want)
		}
	}
}

func TestPredicateKinds(t *testing.T) {
	j := NewJoin(ref("R1", "x"), OpEQ, ref("R2", "y"))
	if j.Kind() != KindJoin || j.Kind().String() != "join" {
		t.Error("join kind wrong")
	}
	lcc := NewJoin(ref("R2", "y"), OpEQ, ref("r2", "w"))
	if lcc.Kind() != KindLocalColCol {
		t.Error("same-table predicate should be local-colcol (case-insensitive)")
	}
	lc := NewConst(ref("R1", "x"), OpGT, storage.Int64(500))
	if lc.Kind() != KindLocalConst {
		t.Error("const predicate kind wrong")
	}
	if KindLocalColCol.String() != "local-colcol" || KindLocalConst.String() != "local-const" {
		t.Error("kind names wrong")
	}
	if PredicateKind(9).String() != "unknown" {
		t.Error("unknown kind name wrong")
	}
	if !j.IsEquality() || lc.IsEquality() == (lc.Op == OpEQ) == false {
		t.Error("IsEquality wrong")
	}
}

func TestPredicateTablesAndReferences(t *testing.T) {
	j := NewJoin(ref("R1", "x"), OpEQ, ref("R2", "y"))
	tabs := j.Tables()
	if len(tabs) != 2 || tabs[0] != "R1" || tabs[1] != "R2" {
		t.Errorf("Tables = %v", tabs)
	}
	if !j.References("r1") || !j.References("R2") || j.References("R3") {
		t.Error("References wrong")
	}
	lc := NewConst(ref("R1", "x"), OpLT, storage.Int64(1))
	if len(lc.Tables()) != 1 || lc.Tables()[0] != "R1" {
		t.Errorf("const Tables = %v", lc.Tables())
	}
	lcc := NewJoin(ref("R2", "y"), OpEQ, ref("R2", "w"))
	if len(lcc.Tables()) != 1 {
		t.Errorf("same-table Tables = %v", lcc.Tables())
	}
}

func TestNormalizeAndCanonicalKey(t *testing.T) {
	a := NewJoin(ref("R2", "y"), OpGT, ref("R1", "x"))
	n := a.Normalize()
	if n.Left.Key() != "r1.x" || n.Op != OpLT || n.Right.Key() != "r2.y" {
		t.Errorf("Normalize = %v", n)
	}
	b := NewJoin(ref("R1", "x"), OpLT, ref("R2", "y"))
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Error("flipped predicates should share a canonical key")
	}
	c := NewJoin(ref("R1", "x"), OpLE, ref("R2", "y"))
	if b.CanonicalKey() == c.CanonicalKey() {
		t.Error("different ops must not collide")
	}
	lc := NewConst(ref("R1", "x"), OpGT, storage.Int64(500))
	if lc.Normalize() != lc {
		t.Error("const predicates normalize to themselves")
	}
}

func TestPredicateString(t *testing.T) {
	j := NewJoin(ref("R1", "x"), OpEQ, ref("R2", "y"))
	if j.String() != "R1.x = R2.y" {
		t.Errorf("String = %q", j.String())
	}
	lc := NewConst(ref("R1", "x"), OpGT, storage.Int64(500))
	if lc.String() != "R1.x > 500" {
		t.Errorf("String = %q", lc.String())
	}
	s := NewConst(ref("R1", "name"), OpEQ, storage.String64("o'brien"))
	if !strings.Contains(s.String(), "'o''brien'") {
		t.Errorf("string constant escaping: %q", s.String())
	}
}

func TestDedup(t *testing.T) {
	p1 := NewConst(ref("R1", "x"), OpGT, storage.Int64(500))
	p2 := NewConst(ref("r1", "X"), OpGT, storage.Int64(500)) // same, different case
	p3 := NewJoin(ref("R1", "x"), OpEQ, ref("R2", "y"))
	p4 := NewJoin(ref("R2", "y"), OpEQ, ref("R1", "x")) // same, flipped
	p5 := NewConst(ref("R1", "x"), OpGT, storage.Int64(501))
	out := Dedup([]Predicate{p1, p2, p3, p4, p5})
	if len(out) != 3 {
		t.Fatalf("Dedup kept %d predicates, want 3: %v", len(out), out)
	}
	if out[0].CanonicalKey() != p1.CanonicalKey() || out[1].CanonicalKey() != p3.CanonicalKey() {
		t.Error("Dedup should preserve first-occurrence order")
	}
}

func TestFormatConjunction(t *testing.T) {
	p1 := NewJoin(ref("R1", "x"), OpEQ, ref("R2", "y"))
	p2 := NewConst(ref("R1", "x"), OpLT, storage.Int64(3))
	got := FormatConjunction([]Predicate{p1, p2})
	if got != "R1.x = R2.y AND R1.x < 3" {
		t.Errorf("FormatConjunction = %q", got)
	}
	if FormatConjunction(nil) != "" {
		t.Error("empty conjunction should be empty string")
	}
}

// Property: Normalize is idempotent and preserves evaluation under any
// int-valued binding.
func TestNormalizePreservesEvalProperty(t *testing.T) {
	f := func(lv, rv int64, opRaw uint8) bool {
		op := CompareOp(int(opRaw) % 6)
		p := NewJoin(ref("B", "r"), op, ref("A", "l")) // deliberately reversed order
		n := p.Normalize()
		if n.Normalize() != n {
			return false
		}
		vals := map[string]storage.Value{"b.r": storage.Int64(lv), "a.l": storage.Int64(rv)}
		eval := func(p Predicate) bool {
			return p.Op.Holds(storage.Compare(vals[p.Left.Key()], vals[p.Right.Key()]))
		}
		return eval(p) == eval(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
