package storage

import (
	"math"
	"testing"
)

func gatherSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		ColumnDef{Name: "i", Type: TypeInt64},
		ColumnDef{Name: "f", Type: TypeFloat64},
		ColumnDef{Name: "s", Type: TypeString},
		ColumnDef{Name: "b", Type: TypeBool},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	return s
}

func gatherSource(t *testing.T) *Table {
	t.Helper()
	src := NewTable("src", gatherSchema(t))
	src.MustAppendRow(Int64(1), Float64(1.5), String64("a"), Bool(true))
	src.MustAppendRow(Null(TypeInt64), Float64(2.5), String64("b"), Bool(false))
	src.MustAppendRow(Int64(3), Null(TypeFloat64), String64("c"), Bool(true))
	src.MustAppendRow(Int64(4), Float64(4.5), String64("d"), Bool(false))
	return src
}

func TestAppendGather(t *testing.T) {
	src := gatherSource(t)
	dst := NewTable("dst", gatherSchema(t))
	sel := []int{3, 1, 1, 0}
	if err := dst.AppendGather(src, sel); err != nil {
		t.Fatalf("AppendGather: %v", err)
	}
	if dst.NumRows() != len(sel) {
		t.Fatalf("rows = %d, want %d", dst.NumRows(), len(sel))
	}
	for out, in := range sel {
		for c := 0; c < 4; c++ {
			got, want := dst.Value(out, c), src.Value(in, c)
			if got.IsNull() != want.IsNull() || (!got.IsNull() && !Equal(got, want)) {
				t.Errorf("row %d col %d: got %s, want %s", out, c, got, want)
			}
		}
	}
}

func TestAppendGatherAfterRowAppends(t *testing.T) {
	// A destination that already has rows (with no nulls slice) must
	// materialize its nulls when gathering from a nullable source.
	src := gatherSource(t)
	dst := NewTable("dst", gatherSchema(t))
	dst.MustAppendRow(Int64(9), Float64(9.5), String64("z"), Bool(true))
	if err := dst.AppendGather(src, []int{1}); err != nil {
		t.Fatalf("AppendGather: %v", err)
	}
	if !dst.Value(1, 0).IsNull() {
		t.Errorf("expected NULL at (1,0), got %s", dst.Value(1, 0))
	}
	if dst.Value(0, 0).IsNull() {
		t.Errorf("pre-existing row became NULL")
	}
}

func TestAppendGatherTypeMismatch(t *testing.T) {
	src := gatherSource(t)
	other, err := NewSchema(ColumnDef{Name: "x", Type: TypeString})
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	dst := NewTable("dst", other)
	if err := dst.AppendGather(src, []int{0}); err == nil {
		t.Fatalf("expected column-count mismatch error")
	}
}

func TestAppendPairGather(t *testing.T) {
	left := gatherSource(t)
	rs, err := NewSchema(ColumnDef{Name: "k", Type: TypeInt64}, ColumnDef{Name: "v", Type: TypeString})
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	right := NewTable("right", rs)
	right.MustAppendRow(Int64(10), String64("x"))
	right.MustAppendRow(Null(TypeInt64), String64("y"))

	joined, err := NewSchema(
		ColumnDef{Name: "i", Type: TypeInt64},
		ColumnDef{Name: "f", Type: TypeFloat64},
		ColumnDef{Name: "s", Type: TypeString},
		ColumnDef{Name: "b", Type: TypeBool},
		ColumnDef{Name: "k", Type: TypeInt64},
		ColumnDef{Name: "v", Type: TypeString},
	)
	if err != nil {
		t.Fatalf("schema: %v", err)
	}
	dst := NewTable("dst", joined)
	lsel := []int{2, 0}
	rsel := []int{1, 0}
	if err := dst.AppendPairGather(left, right, lsel, rsel); err != nil {
		t.Fatalf("AppendPairGather: %v", err)
	}
	if dst.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", dst.NumRows())
	}
	if !dst.Value(0, 4).IsNull() {
		t.Errorf("expected NULL right key in first joined row")
	}
	if got := dst.Value(1, 5); !Equal(got, String64("x")) {
		t.Errorf("joined (1, v) = %s, want x", got)
	}
	if err := dst.AppendPairGather(left, right, []int{0}, []int{0, 1}); err == nil {
		t.Fatalf("expected length mismatch error")
	}
}

// KeyHash must respect Value.Key() equality — rows the hash join would match
// hash alike — and tell apart the keys of each column's small sample.
func TestKeyHashFollowsKey(t *testing.T) {
	tbl := NewTable("k", gatherSchema(t))
	tbl.MustAppendRow(Int64(7), Float64(0), String64("ab"), Bool(true))
	tbl.MustAppendRow(Int64(7), Float64(math.Copysign(0, -1)), String64("ab"), Bool(true))
	tbl.MustAppendRow(Int64(-7), Float64(1), String64("ba"), Bool(false))
	tbl.MustAppendRow(Int64(1<<62), Float64(math.NaN()), String64(""), Bool(false))
	for c := 0; c < tbl.Schema().NumColumns(); c++ {
		d := tbl.ColumnData(c)
		for a := 0; a < tbl.NumRows(); a++ {
			for b := 0; b < tbl.NumRows(); b++ {
				sameKey := d.Value(a).Key() == d.Value(b).Key()
				if sameHash := d.KeyHash(a) == d.KeyHash(b); sameHash != sameKey {
					t.Errorf("column %d rows %d,%d (%s, %s): same key %v, same hash %v",
						c, a, b, d.Value(a), d.Value(b), sameKey, sameHash)
				}
			}
		}
	}
}
