package executor

import (
	"testing"

	"repro/internal/storage"
)

func aggTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("t", storage.MustSchema(
		storage.ColumnDef{Name: "g", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "v", Type: storage.TypeInt64},
	))
	rows := [][2]int64{{1, 10}, {1, 20}, {2, 5}, {2, 15}, {2, 25}, {3, 7}}
	for _, r := range rows {
		tbl.MustAppendRow(storage.Int64(r[0]), storage.Int64(r[1]))
	}
	tbl.MustAppendRow(storage.Int64(3), storage.Null(storage.TypeInt64))
	return tbl
}

func TestAggregateGrouped(t *testing.T) {
	tbl := aggTable(t)
	out, err := (&Executor{}).Aggregate(tbl, []int{0}, []AggSpec{
		{Op: AggCountStar, Name: "n"},
		{Op: AggCount, Col: 1, Name: "nv"},
		{Op: AggSum, Col: 1, Name: "s"},
		{Op: AggMin, Col: 1, Name: "lo"},
		{Op: AggMax, Col: 1, Name: "hi"},
		{Op: AggAvg, Col: 1, Name: "avg"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 3 {
		t.Fatalf("groups = %d, want 3", out.NumRows())
	}
	// Groups emit in key-sorted order: 1, 2, 3.
	check := func(row int, g, n, nv int64, s float64, lo, hi int64, avg float64) {
		t.Helper()
		if out.Value(row, 0).Int() != g {
			t.Errorf("row %d group = %v", row, out.Value(row, 0))
		}
		if out.Value(row, 1).Int() != n || out.Value(row, 2).Int() != nv {
			t.Errorf("row %d counts = %v, %v", row, out.Value(row, 1), out.Value(row, 2))
		}
		if out.Value(row, 3).Float() != s {
			t.Errorf("row %d sum = %v", row, out.Value(row, 3))
		}
		if out.Value(row, 4).Int() != lo || out.Value(row, 5).Int() != hi {
			t.Errorf("row %d min/max = %v/%v", row, out.Value(row, 4), out.Value(row, 5))
		}
		if out.Value(row, 6).Float() != avg {
			t.Errorf("row %d avg = %v", row, out.Value(row, 6))
		}
	}
	check(0, 1, 2, 2, 30, 10, 20, 15)
	check(1, 2, 3, 3, 45, 5, 25, 15)
	// Group 3 has one NULL v: COUNT(*) = 2, COUNT(v) = 1.
	if out.Value(2, 1).Int() != 2 || out.Value(2, 2).Int() != 1 {
		t.Errorf("NULL handling: %v %v", out.Value(2, 1), out.Value(2, 2))
	}
}

func TestAggregateGlobal(t *testing.T) {
	tbl := aggTable(t)
	out, err := (&Executor{}).Aggregate(tbl, nil, []AggSpec{
		{Op: AggCountStar, Name: "n"},
		{Op: AggSum, Col: 1, Name: "s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 {
		t.Fatalf("global aggregate rows = %d", out.NumRows())
	}
	if out.Value(0, 0).Int() != 7 || out.Value(0, 1).Float() != 82 {
		t.Errorf("global = %v, %v", out.Value(0, 0), out.Value(0, 1))
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	empty := storage.NewTable("e", storage.MustSchema(storage.ColumnDef{Name: "v", Type: storage.TypeInt64}))
	// Global aggregates over empty input: one row, COUNT 0, SUM NULL.
	out, err := (&Executor{}).Aggregate(empty, nil, []AggSpec{
		{Op: AggCountStar, Name: "n"},
		{Op: AggSum, Col: 0, Name: "s"},
		{Op: AggMin, Col: 0, Name: "lo"},
		{Op: AggAvg, Col: 0, Name: "a"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 1 || out.Value(0, 0).Int() != 0 {
		t.Fatalf("empty global: %v", out.Format(0))
	}
	if !out.Value(0, 1).IsNull() || !out.Value(0, 2).IsNull() || !out.Value(0, 3).IsNull() {
		t.Error("SUM/MIN/AVG over empty input should be NULL")
	}
	// Grouped aggregate over empty input: zero rows.
	out, err = (&Executor{}).Aggregate(empty, []int{0}, []AggSpec{{Op: AggCountStar, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 0 {
		t.Errorf("empty grouped rows = %d", out.NumRows())
	}
}

func TestAggregateNullGroupKeys(t *testing.T) {
	tbl := storage.NewTable("t", storage.MustSchema(
		storage.ColumnDef{Name: "g", Type: storage.TypeInt64},
	))
	tbl.MustAppendRow(storage.Null(storage.TypeInt64))
	tbl.MustAppendRow(storage.Null(storage.TypeInt64))
	tbl.MustAppendRow(storage.Int64(1))
	out, err := (&Executor{}).Aggregate(tbl, []int{0}, []AggSpec{{Op: AggCountStar, Name: "n"}})
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("NULLs should form one group: %d rows", out.NumRows())
	}
}

func TestAggregateValidation(t *testing.T) {
	tbl := aggTable(t)
	if _, err := (&Executor{}).Aggregate(nil, nil, nil); err == nil {
		t.Error("nil table should error")
	}
	if _, err := (&Executor{}).Aggregate(tbl, []int{99}, nil); err == nil {
		t.Error("bad group ordinal should error")
	}
	if _, err := (&Executor{}).Aggregate(tbl, nil, []AggSpec{{Op: AggSum, Col: 99}}); err == nil {
		t.Error("bad aggregate ordinal should error")
	}
	if _, err := (&Executor{}).Aggregate(tbl, nil, []AggSpec{{Op: AggOp(42), Col: 0}}); err == nil {
		t.Error("unknown op should error")
	}
	if _, err := (&Executor{}).Aggregate(tbl, nil, []AggSpec{{Op: AggMin, Col: -1}}); err == nil {
		t.Error("negative min ordinal should error")
	}
}

func TestAggOpString(t *testing.T) {
	if AggSum.String() != "SUM" || AggCountStar.String() != "COUNT" || AggOp(9).String() != "?" {
		t.Error("op names wrong")
	}
}
