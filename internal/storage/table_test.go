package storage

import (
	"strings"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema(
		ColumnDef{Name: "id", Type: TypeInt64},
		ColumnDef{Name: "name", Type: TypeString},
		ColumnDef{Name: "score", Type: TypeFloat64},
	)
}

func TestNewSchemaErrors(t *testing.T) {
	if _, err := NewSchema(ColumnDef{Name: "", Type: TypeInt64}); err == nil {
		t.Error("empty column name should error")
	}
	if _, err := NewSchema(ColumnDef{Name: "x", Type: TypeInvalid}); err == nil {
		t.Error("invalid type should error")
	}
	if _, err := NewSchema(
		ColumnDef{Name: "x", Type: TypeInt64},
		ColumnDef{Name: "X", Type: TypeInt64},
	); err == nil {
		t.Error("case-insensitive duplicate should error")
	}
}

func TestMustSchemaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustSchema should panic on bad schema")
		}
	}()
	MustSchema(ColumnDef{Name: "", Type: TypeInt64})
}

func TestSchemaLookup(t *testing.T) {
	s := testSchema(t)
	if s.NumColumns() != 3 {
		t.Fatalf("NumColumns = %d, want 3", s.NumColumns())
	}
	if s.ColumnIndex("ID") != 0 || s.ColumnIndex("Name") != 1 || s.ColumnIndex("score") != 2 {
		t.Error("case-insensitive ColumnIndex failed")
	}
	if s.ColumnIndex("missing") != -1 {
		t.Error("missing column should give -1")
	}
	if s.Column(1).Name != "name" {
		t.Error("Column(1) wrong")
	}
	cols := s.Columns()
	cols[0].Name = "mutated"
	if s.Column(0).Name != "id" {
		t.Error("Columns() must return a copy")
	}
}

func TestSchemaRowWidth(t *testing.T) {
	s := testSchema(t)
	want := 8 + 16 + 8
	if s.RowWidth() != want {
		t.Errorf("RowWidth = %d, want %d", s.RowWidth(), want)
	}
	empty := MustSchema()
	if empty.RowWidth() <= 0 {
		t.Error("empty schema RowWidth must be positive")
	}
}

func TestSchemaString(t *testing.T) {
	s := testSchema(t)
	got := s.String()
	if !strings.Contains(got, "id BIGINT") || !strings.Contains(got, "score DOUBLE") {
		t.Errorf("schema string %q missing pieces", got)
	}
}

func TestTableAppendAndRead(t *testing.T) {
	tbl := NewTable("people", testSchema(t))
	if err := tbl.AppendRow(Int64(1), String64("ann"), Float64(3.5)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow(Int64(2), Null(TypeString), Float64(1.25)); err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Fatalf("NumRows = %d, want 2", tbl.NumRows())
	}
	if tbl.Value(0, 0).Int() != 1 || tbl.Value(0, 1).Str() != "ann" {
		t.Error("row 0 values wrong")
	}
	if !tbl.Value(1, 1).IsNull() {
		t.Error("row 1 name should be NULL")
	}
	row := tbl.Row(1)
	if len(row) != 3 || row[2].Float() != 1.25 {
		t.Errorf("Row(1) = %v", row)
	}
}

func TestTableAppendErrors(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	if err := tbl.AppendRow(Int64(1)); err == nil {
		t.Error("arity mismatch should error")
	}
	if err := tbl.AppendRow(String64("x"), String64("y"), Float64(0)); err == nil {
		t.Error("type mismatch should error")
	}
	if tbl.NumRows() != 0 {
		t.Error("failed appends must not change row count")
	}
	// A failure mid-row must roll back earlier columns of that row.
	if err := tbl.AppendRow(Int64(1), Int64(2), Float64(0)); err == nil {
		t.Error("second column type mismatch should error")
	}
	if err := tbl.AppendRow(Int64(9), String64("ok"), Float64(1)); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if tbl.NumRows() != 1 || tbl.Value(0, 0).Int() != 9 {
		t.Error("table corrupted after rolled-back append")
	}
}

func TestMustAppendRowPanics(t *testing.T) {
	tbl := NewTable("t", testSchema(t))
	defer func() {
		if recover() == nil {
			t.Error("MustAppendRow should panic on bad row")
		}
	}()
	tbl.MustAppendRow(Int64(1))
}

func TestSortedIndices(t *testing.T) {
	tbl := NewTable("t", MustSchema(ColumnDef{Name: "v", Type: TypeInt64}))
	for _, v := range []int64{5, 1, 4, 1, 3} {
		tbl.MustAppendRow(Int64(v))
	}
	tbl.MustAppendRow(Null(TypeInt64))
	idx := tbl.SortedIndices(0)
	if len(idx) != 6 {
		t.Fatalf("len = %d", len(idx))
	}
	if !tbl.Value(idx[0], 0).IsNull() {
		t.Error("NULL should sort first")
	}
	prev := tbl.Value(idx[1], 0)
	for _, i := range idx[2:] {
		cur := tbl.Value(i, 0)
		if Compare(prev, cur) > 0 {
			t.Errorf("not sorted: %v > %v", prev, cur)
		}
		prev = cur
	}
}

// A view is its base table's rows under another schema: nothing copied,
// charged what a copy would be, every append refused with the base left as
// it was, and blind to rows the base gains later.
func TestViewIsReadOnly(t *testing.T) {
	base := NewTable("base", testSchema(t))
	base.MustAppendRow(Int64(1), String64("a"), Float64(2))
	base.MustAppendRow(Null(TypeInt64), String64("bc"), Float64(3))
	qualified := MustSchema(ColumnDef{Name: "b.id", Type: TypeInt64},
		ColumnDef{Name: "b.name", Type: TypeString}, ColumnDef{Name: "b.score", Type: TypeFloat64})
	view, err := base.View("b", qualified)
	if err != nil {
		t.Fatal(err)
	}
	if view.Name() != "b" || view.Schema() != qualified || view.NumRows() != 2 || !view.Value(1, 0).IsNull() {
		t.Fatalf("view %s does not show the base's rows", view)
	}
	if &view.ColumnData(1).Strs[0] != &base.ColumnData(1).Strs[0] {
		t.Fatal("the view copied the base's column storage")
	}
	copied := NewTable("b", qualified)
	if err := copied.AppendRange(base, 0, base.NumRows()); err != nil {
		t.Fatal(err)
	}
	if view.ApproxBytes() != copied.ApproxBytes() {
		t.Fatalf("view charged %d bytes, a copy %d", view.ApproxBytes(), copied.ApproxBytes())
	}
	pair := MustSchema(append(qualified.Columns(), ColumnDef{Name: "x", Type: TypeInt64})...)
	pairView, err := NewTable("p", pair).View("pv", pair)
	if err != nil {
		t.Fatal(err)
	}
	one := NewTable("one", MustSchema(ColumnDef{Name: "x", Type: TypeInt64}))
	one.MustAppendRow(Int64(7))
	before := base.Format(0)
	for name, appendTo := range map[string]func() error{
		"AppendRow":        func() error { return view.AppendRow(Int64(9), String64("z"), Float64(9)) },
		"AppendRange":      func() error { return view.AppendRange(base, 0, 2) },
		"AppendGather":     func() error { return view.AppendGather(base, []int{1, 0}) },
		"AppendPairGather": func() error { return pairView.AppendPairGather(base, one, []int{0}, []int{0}) },
	} {
		if err := appendTo(); err == nil || !strings.Contains(err.Error(), "read-only view") {
			t.Errorf("%s on a view: err = %v, want the read-only error", name, err)
		}
	}
	if view.NumRows() != 2 || pairView.NumRows() != 0 || base.NumRows() != 2 || base.Format(0) != before {
		t.Fatalf("a refused append changed a table: view %d rows, base\n%s", view.NumRows(), base.Format(0))
	}
	base.MustAppendRow(Int64(3), String64("d"), Float64(4))
	if view.NumRows() != 2 || len(view.ColumnData(0).Ints) != 2 {
		t.Fatal("the view saw a row appended to the base after it was taken")
	}
	if _, err := base.View("bad", MustSchema(ColumnDef{Name: "id", Type: TypeString})); err == nil {
		t.Fatal("a view under a schema of other column types must be refused")
	}
}

func TestTableFormatAndString(t *testing.T) {
	tbl := NewTable("t", MustSchema(ColumnDef{Name: "v", Type: TypeInt64}))
	for i := int64(0); i < 5; i++ {
		tbl.MustAppendRow(Int64(i))
	}
	out := tbl.Format(2)
	if !strings.Contains(out, "3 more rows") {
		t.Errorf("Format(2) missing truncation note: %q", out)
	}
	all := tbl.Format(0)
	if strings.Contains(all, "more rows") {
		t.Errorf("Format(0) should include all rows: %q", all)
	}
	if !strings.Contains(tbl.String(), "[5 rows]") {
		t.Errorf("String() = %q", tbl.String())
	}
}

func TestNullsAppearMidColumn(t *testing.T) {
	// The nulls bitmap is lazily created; verify a NULL after non-NULLs works.
	tbl := NewTable("t", MustSchema(ColumnDef{Name: "v", Type: TypeInt64}))
	tbl.MustAppendRow(Int64(1))
	tbl.MustAppendRow(Int64(2))
	tbl.MustAppendRow(Null(TypeInt64))
	tbl.MustAppendRow(Int64(4))
	if tbl.Value(0, 0).IsNull() || tbl.Value(1, 0).IsNull() {
		t.Error("early rows must not be NULL")
	}
	if !tbl.Value(2, 0).IsNull() {
		t.Error("row 2 must be NULL")
	}
	if tbl.Value(3, 0).IsNull() || tbl.Value(3, 0).Int() != 4 {
		t.Error("row 3 must be 4")
	}
}

func TestNullOfWrongDeclaredType(t *testing.T) {
	// A NULL value carrying a different type tag is coerced to the column type.
	tbl := NewTable("t", MustSchema(ColumnDef{Name: "v", Type: TypeInt64}))
	if err := tbl.AppendRow(Null(TypeString)); err != nil {
		t.Fatalf("NULL of any type should be appendable: %v", err)
	}
	if !tbl.Value(0, 0).IsNull() || tbl.Value(0, 0).Type() != TypeInt64 {
		t.Error("stored NULL should carry the column type")
	}
}

func TestAppendTable(t *testing.T) {
	schema := MustSchema(
		ColumnDef{Name: "k", Type: TypeInt64},
		ColumnDef{Name: "s", Type: TypeString},
	)
	a := NewTable("a", schema)
	a.MustAppendRow(Int64(1), String64("x"))
	a.MustAppendRow(Int64(2), Null(TypeString))
	b := NewTable("b", schema)
	b.MustAppendRow(Int64(3), String64("y"))
	if err := a.AppendRange(b, 0, b.NumRows()); err != nil {
		t.Fatal(err)
	}
	if a.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3", a.NumRows())
	}
	if a.Value(2, 0).Int() != 3 || a.Value(2, 1).Str() != "y" {
		t.Errorf("appended row wrong: %v %v", a.Value(2, 0), a.Value(2, 1))
	}
	if !a.Value(1, 1).IsNull() {
		t.Error("pre-existing NULL lost")
	}
}

func TestAppendTableNullsFromSource(t *testing.T) {
	// Destination has no nulls bitmap yet; source does.
	schema := MustSchema(ColumnDef{Name: "v", Type: TypeInt64})
	a := NewTable("a", schema)
	a.MustAppendRow(Int64(1))
	b := NewTable("b", schema)
	b.MustAppendRow(Null(TypeInt64))
	b.MustAppendRow(Int64(5))
	if err := a.AppendRange(b, 0, b.NumRows()); err != nil {
		t.Fatal(err)
	}
	if a.Value(0, 0).IsNull() {
		t.Error("row 0 must stay non-NULL")
	}
	if !a.Value(1, 0).IsNull() {
		t.Error("appended NULL lost")
	}
	if a.Value(2, 0).Int() != 5 {
		t.Error("appended value lost")
	}
}

func TestAppendTableTypeMismatch(t *testing.T) {
	a := NewTable("a", MustSchema(ColumnDef{Name: "v", Type: TypeInt64}))
	b := NewTable("b", MustSchema(ColumnDef{Name: "v", Type: TypeString}))
	if err := a.AppendRange(b, 0, b.NumRows()); err == nil {
		t.Fatal("type mismatch must be rejected")
	}
	c := NewTable("c", MustSchema(
		ColumnDef{Name: "v", Type: TypeInt64}, ColumnDef{Name: "w", Type: TypeInt64}))
	if err := a.AppendRange(c, 0, c.NumRows()); err == nil {
		t.Fatal("column-count mismatch must be rejected")
	}
}

// AppendRange copies exactly rows [start, end), NULLs included, whether or
// not room was reserved first; Reserve itself adds no rows.
func TestAppendRangeAndReserve(t *testing.T) {
	schema := MustSchema(
		ColumnDef{Name: "k", Type: TypeInt64},
		ColumnDef{Name: "f", Type: TypeFloat64},
		ColumnDef{Name: "s", Type: TypeString},
		ColumnDef{Name: "b", Type: TypeBool},
	)
	src := NewTable("src", schema)
	for i := 0; i < 10; i++ {
		s := String64(string(rune('a' + i)))
		if i == 6 {
			s = Null(TypeString)
		}
		src.MustAppendRow(Int64(int64(i)), Float64(float64(i)/2), s, Bool(i%2 == 0))
	}
	for _, reserve := range []int{0, 3, 100} {
		dst := NewTable("dst", schema)
		dst.MustAppendRow(Int64(-1), Float64(-1), String64("z"), Bool(true))
		dst.Reserve(reserve)
		if dst.NumRows() != 1 {
			t.Fatalf("Reserve(%d) changed the row count to %d", reserve, dst.NumRows())
		}
		if err := dst.AppendRange(src, 4, 8); err != nil {
			t.Fatal(err)
		}
		if err := dst.AppendRange(src, 8, 8); err != nil {
			t.Fatal(err)
		}
		if dst.NumRows() != 5 {
			t.Fatalf("rows = %d, want 5", dst.NumRows())
		}
		for r := 1; r < dst.NumRows(); r++ {
			for c := 0; c < schema.NumColumns(); c++ {
				if got, want := dst.Value(r, c), src.Value(r+3, c); got.Key() != want.Key() {
					t.Fatalf("reserve %d: row %d col %d = %s, want %s", reserve, r, c, got, want)
				}
			}
		}
		if dst.Value(0, 2).IsNull() || !dst.Value(3, 2).IsNull() {
			t.Fatal("NULL bitmap misplaced by the range append")
		}
	}
}
