package expr

import (
	"strings"
	"testing"

	"repro/internal/storage"
)

func TestNewDisjunctionValidation(t *testing.T) {
	if _, err := NewDisjunction(nil); err == nil {
		t.Error("empty disjunction should error")
	}
	if _, err := NewDisjunction([]Predicate{
		NewJoin(ref("A", "x"), OpEQ, ref("B", "y")),
	}); err == nil {
		t.Error("join predicate should error")
	}
	if _, err := NewDisjunction([]Predicate{
		NewConst(ref("A", "x"), OpEQ, storage.Int64(1)),
		NewConst(ref("B", "y"), OpEQ, storage.Int64(2)),
	}); err == nil {
		t.Error("cross-table disjunction should error")
	}
	d, err := NewDisjunction([]Predicate{
		NewConst(ref("A", "x"), OpEQ, storage.Int64(1)),
		NewConst(ref("a", "y"), OpLT, storage.Int64(5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Table() != "A" || !d.References("a") || d.References("B") {
		t.Error("table accessors wrong")
	}
	if (Disjunction{}).Table() != "" {
		t.Error("empty disjunction has no table")
	}
}

func TestDisjunctionCanonicalKeyOrderInsensitive(t *testing.T) {
	p1 := NewConst(ref("A", "x"), OpEQ, storage.Int64(1))
	p2 := NewConst(ref("A", "y"), OpEQ, storage.Int64(2))
	d1, _ := NewDisjunction([]Predicate{p1, p2})
	d2, _ := NewDisjunction([]Predicate{p2, p1})
	if d1.CanonicalKey() != d2.CanonicalKey() {
		t.Error("canonical key should be order-insensitive")
	}
}

func TestDisjunctionString(t *testing.T) {
	d, _ := NewDisjunction([]Predicate{
		NewConst(ref("A", "x"), OpEQ, storage.Int64(1)),
		NewConst(ref("A", "x"), OpEQ, storage.Int64(2)),
	})
	s := d.String()
	if !strings.HasPrefix(s, "(") || !strings.Contains(s, " OR ") {
		t.Errorf("String = %q", s)
	}
}

func TestDedupDisjunctions(t *testing.T) {
	p1 := NewConst(ref("A", "x"), OpEQ, storage.Int64(1))
	p2 := NewConst(ref("A", "y"), OpEQ, storage.Int64(2))
	d1, _ := NewDisjunction([]Predicate{p1, p2})
	d2, _ := NewDisjunction([]Predicate{p2, p1})     // same set
	d3, _ := NewDisjunction([]Predicate{p1, p1, p2}) // inner dup collapses to same set
	out := DedupDisjunctions([]Disjunction{d1, d2, d3})
	if len(out) != 1 {
		t.Fatalf("dedup kept %d, want 1", len(out))
	}
	if len(out[0].Preds) != 2 {
		t.Errorf("inner dedup failed: %v", out[0].Preds)
	}
}

func TestDisjunctionsOf(t *testing.T) {
	dA, _ := NewDisjunction([]Predicate{NewConst(ref("A", "x"), OpEQ, storage.Int64(1))})
	dB, _ := NewDisjunction([]Predicate{NewConst(ref("B", "y"), OpEQ, storage.Int64(1))})
	got := DisjunctionsOf([]Disjunction{dA, dB}, "a")
	if len(got) != 1 || got[0].Table() != "A" {
		t.Errorf("DisjunctionsOf = %v", got)
	}
}
