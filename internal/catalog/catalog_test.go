package catalog

import (
	"testing"

	"repro/internal/storage"
)

func TestAddAndLookupTable(t *testing.T) {
	c := New()
	ts := SimpleTable("R1", 100, map[string]float64{"x": 10})
	if err := c.AddTable(ts); err != nil {
		t.Fatal(err)
	}
	got := c.Table("r1")
	if got == nil || got.Card != 100 {
		t.Fatalf("lookup failed: %+v", got)
	}
	col := got.Column("X")
	if col == nil || col.Distinct != 10 {
		t.Fatalf("column lookup failed: %+v", col)
	}
	if got.Column("missing") != nil {
		t.Error("missing column should be nil")
	}
	if c.Table("nope") != nil {
		t.Error("missing table should be nil")
	}
}

func TestAddTableValidation(t *testing.T) {
	c := New()
	if err := c.AddTable(nil); err == nil {
		t.Error("nil stats should error")
	}
	if err := c.AddTable(&TableStats{Name: ""}); err == nil {
		t.Error("empty name should error")
	}
	if err := c.AddTable(&TableStats{Name: "t", Card: -1}); err == nil {
		t.Error("negative cardinality should error")
	}
	bad := SimpleTable("t", 10, map[string]float64{"x": 5})
	bad.Columns["x"].Distinct = -2
	if err := c.AddTable(bad); err == nil {
		t.Error("negative distinct should error")
	}
}

func TestDistinctClampedToCard(t *testing.T) {
	c := New()
	ts := SimpleTable("t", 10, map[string]float64{"x": 50})
	c.MustAddTable(ts)
	if got := c.Table("t").Column("x").Distinct; got != 10 {
		t.Errorf("distinct should clamp to card: got %g", got)
	}
}

func TestTableNamesOrderAndReplace(t *testing.T) {
	c := New()
	c.MustAddTable(SimpleTable("B", 1, nil))
	c.MustAddTable(SimpleTable("A", 1, nil))
	c.MustAddTable(SimpleTable("b", 2, nil)) // replace, keeps position
	names := c.TableNames()
	if len(names) != 2 || names[0] != "b" || names[1] != "A" {
		t.Errorf("TableNames = %v", names)
	}
	if c.Table("B").Card != 2 {
		t.Error("replacement should take effect")
	}
}

func TestCatalogClone(t *testing.T) {
	c := New()
	c.MustAddTable(SimpleTable("R", 100, map[string]float64{"x": 10}))
	cl := c.Clone()
	cl.Table("R").Card = 7
	cl.Table("R").Column("x").Distinct = 3
	if c.Table("R").Card != 100 || c.Table("R").Column("x").Distinct != 10 {
		t.Error("Clone must deep-copy statistics")
	}
}

func TestSimpleTableDefaults(t *testing.T) {
	ts := SimpleTable("R", 1000, map[string]float64{"a": 100, "b": 50})
	if ts.RowWidth != 16 {
		t.Errorf("RowWidth = %d, want 16", ts.RowWidth)
	}
	a := ts.Column("a")
	if !a.HasRange || a.Min != 0 || a.Max != 99 {
		t.Errorf("column a range = [%g,%g]", a.Min, a.Max)
	}
	if a.Type != storage.TypeInt64 {
		t.Error("SimpleTable columns should be BIGINT")
	}
}

func TestSetDataAndData(t *testing.T) {
	c := New()
	tbl := storage.NewTable("T", storage.MustSchema(storage.ColumnDef{Name: "v", Type: storage.TypeInt64}))
	c.SetData("T", tbl)
	if c.Data("t") != tbl {
		t.Error("Data lookup failed (case-insensitive)")
	}
	if c.Data("zzz") != nil {
		t.Error("unknown data should be nil")
	}
}

func buildDataTable(t *testing.T) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("emp", storage.MustSchema(
		storage.ColumnDef{Name: "id", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "dept", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "name", Type: storage.TypeString},
	))
	depts := []int64{1, 2, 1, 3, 2, 1, 1, 2, 3, 1}
	for i := int64(0); i < 10; i++ {
		name := storage.String64("e")
		if i == 4 {
			name = storage.Null(storage.TypeString)
		}
		tbl.MustAppendRow(storage.Int64(i), storage.Int64(depts[i]), name)
	}
	return tbl
}

func TestAnalyzeBasicStats(t *testing.T) {
	c := New()
	ts, err := c.Analyze(buildDataTable(t), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Card != 10 {
		t.Errorf("Card = %g", ts.Card)
	}
	id := ts.Column("id")
	if id.Distinct != 10 || id.Min != 0 || id.Max != 9 || !id.HasRange {
		t.Errorf("id stats wrong: %+v", id)
	}
	dept := ts.Column("dept")
	if dept.Distinct != 3 || dept.Min != 1 || dept.Max != 3 {
		t.Errorf("dept stats wrong: %+v", dept)
	}
	name := ts.Column("name")
	if name.Distinct != 1 || name.NullCount != 1 || name.HasRange {
		t.Errorf("name stats wrong: %+v", name)
	}
	if c.Data("emp") == nil {
		t.Error("Analyze should register backing data")
	}
}

func TestAnalyzeNil(t *testing.T) {
	c := New()
	if _, err := c.Analyze(nil, AnalyzeOptions{}); err == nil {
		t.Error("Analyze(nil) should error")
	}
}

func TestAnalyzeWithHistogram(t *testing.T) {
	c := New()
	ts, err := c.Analyze(buildDataTable(t), AnalyzeOptions{HistogramBuckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Column("id").Hist == nil || ts.Column("dept").Hist == nil {
		t.Fatal("numeric columns should have histograms")
	}
	if ts.Column("name").Hist != nil {
		t.Error("string columns should not have histograms")
	}
	if ts.Column("id").Hist.Kind != EquiDepth {
		t.Error("histogram kind should be equi-depth")
	}
	var total float64
	for _, b := range ts.Column("id").Hist.Buckets {
		total += b.Count
	}
	if total != 10 {
		t.Errorf("histogram counts sum to %g, want 10", total)
	}
}

func TestColumnStatsClone(t *testing.T) {
	cs := &ColumnStats{Name: "x", Distinct: 5, Hist: &Histogram{Total: 10, Buckets: []Bucket{{Lo: 0, Hi: 1, Count: 10, Distinct: 5}}}}
	cl := cs.Clone()
	cl.Hist.Buckets[0].Count = 99
	cl.Distinct = 1
	if cs.Hist.Buckets[0].Count != 10 || cs.Distinct != 5 {
		t.Error("ColumnStats.Clone must deep-copy")
	}
}
