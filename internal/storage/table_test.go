package storage

import (
	"reflect"
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
	view, err := base.View("b", qualified, nil)
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
	pairView, err := NewTable("p", pair).View("pv", pair, nil)
	if err != nil {
		t.Fatal(err)
	}
	one := NewTable("one", MustSchema(ColumnDef{Name: "x", Type: TypeInt64}))
	one.MustAppendRow(Int64(7))
	before := tableRows(base)
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
	if view.NumRows() != 2 || pairView.NumRows() != 0 || base.NumRows() != 2 || !reflect.DeepEqual(tableRows(base), before) {
		t.Fatalf("a refused append changed a table: view %d rows, base %v", view.NumRows(), tableRows(base))
	}
	base.MustAppendRow(Int64(3), String64("d"), Float64(4))
	if view.NumRows() != 2 || len(view.ColumnData(0).Ints) != 2 {
		t.Fatal("the view saw a row appended to the base after it was taken")
	}
	if _, err := base.View("bad", MustSchema(ColumnDef{Name: "id", Type: TypeString}), nil); err == nil {
		t.Fatal("a view under a schema of other column types must be refused")
	}
}

// tableRows lists tbl's rows.
func tableRows(tbl *Table) [][]Value {
	rows := make([][]Value, tbl.NumRows())
	for r := range rows {
		rows[r] = tbl.Row(r)
	}
	return rows
}

func TestTableString(t *testing.T) {
	tbl := NewTable("t", MustSchema(ColumnDef{Name: "v", Type: TypeInt64}))
	for i := int64(0); i < 5; i++ {
		tbl.MustAppendRow(Int64(i))
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

// A table carries only its live columns. Every way rows arrive — a gather,
// a pair gather, a range append and a view — fills the live ones from the
// source and leaves the dead ones empty and off the byte ledger, with the
// schema and the row count whole; reading a dead column panics naming it.
func TestDeadColumnsStayEmpty(t *testing.T) {
	src := NewTable("src", testSchema(t))
	for i := 0; i < 6; i++ {
		src.MustAppendRow(Int64(int64(i)), String64(strings.Repeat("x", i)), Float64(float64(i)/2))
	}
	live := []bool{true, false, true}
	inner := MustSchema(ColumnDef{Name: "rid", Type: TypeInt64}, ColumnDef{Name: "rname", Type: TypeString},
		ColumnDef{Name: "rscore", Type: TypeFloat64})
	pair := MustSchema(append(src.Schema().Columns(), inner.Columns()...)...)
	gathered := NewLiveTable("g", src.Schema(), live)
	if err := gathered.AppendGather(src, []int{5, 1, 3}); err != nil {
		t.Fatal(err)
	}
	paired := NewLiveTable("p", pair, []bool{true, false, true, false, true, false})
	paired.Reserve(4)
	if err := paired.AppendPairGather(src, src, []int{0, 2}, []int{4, 5}); err != nil {
		t.Fatal(err)
	}
	ranged := NewLiveTable("r", src.Schema(), live)
	if err := ranged.AppendRange(gathered, 1, 3); err != nil {
		t.Fatal(err)
	}
	view, err := src.View("v", src.Schema(), live)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tbl         *Table
		left, right []int // the source rows behind each row's first three columns and its last three
		bytes       int64
	}{
		{gathered, []int{5, 1, 3}, nil, 3 * 16},
		{paired, []int{0, 2}, []int{4, 5}, 2*16 + 16 + 4 + 16 + 5},
		{ranged, []int{1, 3}, nil, 2 * 16},
		{view, []int{0, 1, 2, 3, 4, 5}, nil, 6 * 16},
	} {
		if c.tbl.NumRows() != len(c.left) {
			t.Fatalf("%s: %d rows, want %d", c.tbl.Name(), c.tbl.NumRows(), len(c.left))
		}
		for col := 0; col < c.tbl.Schema().NumColumns(); col++ {
			rows := c.left
			if col >= 3 {
				rows = c.right
			}
			if want := col != 1 && col != 3 && col != 5; c.tbl.Live(col) != want {
				t.Fatalf("%s: column %d live %v, want %v", c.tbl.Name(), col, !want, want)
			} else if !want {
				continue
			}
			for r, sr := range rows {
				if got, want := c.tbl.Value(r, col), src.Value(sr, col%3); got.Key() != want.Key() {
					t.Fatalf("%s: row %d column %d is %s, want %s", c.tbl.Name(), r, col, got, want)
				}
			}
		}
		if got := c.tbl.ApproxBytes(); got != c.bytes {
			t.Errorf("%s: %d ledger bytes, want %d for the live columns", c.tbl.Name(), got, c.bytes)
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "column name of table g is not live") {
			t.Fatalf("reading a dead column: %q, want a panic naming it", msg)
		}
	}()
	gathered.ColumnData(1)
}

// AppendCount adds rows to a table that carries no column, as a COUNT(*)
// root counts its rows; a table carrying any column, or a view, refuses it.
func TestAppendCount(t *testing.T) {
	none := []bool{false, false, false}
	counted := NewLiveTable("c", testSchema(t), none)
	for _, n := range []int{3, 0, 4096} {
		if err := counted.AppendCount(n); err != nil {
			t.Fatal(err)
		}
	}
	if counted.NumRows() != 4099 || counted.ApproxBytes() != 0 {
		t.Fatalf("%d rows, %d ledger bytes; want 4099 and 0", counted.NumRows(), counted.ApproxBytes())
	}
	partly := NewLiveTable("p", testSchema(t), []bool{false, true, false})
	if err := partly.AppendCount(1); err == nil || partly.NumRows() != 0 {
		t.Fatalf("a table with a live column took counted rows: err %v, %d rows", err, partly.NumRows())
	}
	view, err := counted.View("v", testSchema(t), none)
	if err != nil {
		t.Fatal(err)
	}
	if err := view.AppendCount(1); err == nil || !strings.Contains(err.Error(), "read-only view") || view.NumRows() != 4099 {
		t.Fatalf("a view took counted rows: err %v, %d rows", err, view.NumRows())
	}
}
