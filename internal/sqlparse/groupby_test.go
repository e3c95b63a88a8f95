package sqlparse

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/storage"
)

func groupByCatalog() *catalog.Catalog {
	c := catalog.New()
	c.MustAddTable(catalog.SimpleTable("T", 100, map[string]float64{"k": 10, "v": 50}))
	c.MustAddTable(catalog.SimpleTable("U", 200, map[string]float64{"k": 10, "w": 20}))
	return c
}

func TestParseAggregatesAndGroupBy(t *testing.T) {
	q, err := Parse("SELECT k, COUNT(*), SUM(v), MIN(v), MAX(v), AVG(v) FROM T GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 6 || len(q.GroupBy) != 1 {
		t.Fatalf("select=%v groupby=%v", q.Select, q.GroupBy)
	}
	wantAggs := []AggFunc{AggNone, AggCount, AggSum, AggMin, AggMax, AggAvg}
	for i, want := range wantAggs {
		if q.Select[i].Agg != want {
			t.Errorf("item %d agg = %v, want %v", i, q.Select[i].Agg, want)
		}
	}
	if !q.Select[1].Star {
		t.Error("COUNT(*) should be Star")
	}
	if q.CountStar || q.Star {
		t.Error("aggregate query must not use the legacy flags")
	}
}

func TestParseCountStarFastPathPreserved(t *testing.T) {
	q, err := Parse("SELECT COUNT(*) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if !q.CountStar || len(q.Select) != 0 {
		t.Errorf("COUNT(*) fast path broken: %+v", q)
	}
}

func TestParseCountColumn(t *testing.T) {
	q, err := Parse("SELECT COUNT(v) FROM T")
	if err != nil {
		t.Fatal(err)
	}
	if q.CountStar || len(q.Select) != 1 || q.Select[0].Agg != AggCount || q.Select[0].Star {
		t.Errorf("COUNT(v) parse: %+v", q)
	}
}

func TestParseGroupByWithoutAggregates(t *testing.T) {
	q, err := Parse("SELECT k FROM T GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Select) != 1 || q.Select[0].Agg != AggNone || len(q.GroupBy) != 1 {
		t.Errorf("plain GROUP BY parse: %+v", q)
	}
}

func TestParseAggregateErrors(t *testing.T) {
	bad := []string{
		"SELECT SUM(*) FROM T",
		"SELECT FROB(v) FROM T",
		"SELECT SUM(v FROM T",
		"SELECT * FROM T GROUP BY k",
		"SELECT k FROM T GROUP BY",
		"SELECT k FROM T GROUP k",
	}
	for _, sql := range bad {
		if _, err := Parse(sql); err == nil {
			t.Errorf("%q should fail", sql)
		}
	}
}

func TestBindGroupBy(t *testing.T) {
	q, err := ParseAndBind("SELECT k, SUM(v) FROM T GROUP BY k", groupByCatalog())
	if err != nil {
		t.Fatal(err)
	}
	if q.GroupBy[0].Table != "T" || q.Select[1].Col.Table != "T" {
		t.Errorf("binding: %+v", q)
	}
}

func TestBindGroupByValidation(t *testing.T) {
	cat := groupByCatalog()
	// Non-grouped plain column.
	if _, err := ParseAndBind("SELECT v, COUNT(*) FROM T GROUP BY k", cat); err == nil {
		t.Error("non-grouped column should fail to bind")
	}
	// Unknown group column.
	if _, err := ParseAndBind("SELECT COUNT(*) FROM T GROUP BY zz", cat); err == nil {
		t.Error("unknown group column should fail")
	}
	// Unknown aggregate subject.
	if _, err := ParseAndBind("SELECT SUM(zz) FROM T", cat); err == nil {
		t.Error("unknown aggregate column should fail")
	}
	// Ambiguous group column across tables.
	if _, err := ParseAndBind("SELECT COUNT(*) FROM T, U WHERE T.k = U.k GROUP BY k", cat); err == nil {
		t.Error("ambiguous group column should fail")
	}
}

func TestGroupByQueryString(t *testing.T) {
	q, err := ParseAndBind("SELECT k, SUM(v) FROM T WHERE v < 10 GROUP BY k", groupByCatalog())
	if err != nil {
		t.Fatal(err)
	}
	s := q.String()
	for _, want := range []string{"SUM(T.v)", "GROUP BY T.k", "T.v < 10"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if _, err := Parse(s); err != nil {
		t.Errorf("rendered query %q fails to reparse: %v", s, err)
	}
}

func TestAggFuncString(t *testing.T) {
	names := map[AggFunc]string{AggCount: "COUNT", AggSum: "SUM", AggMin: "MIN", AggMax: "MAX", AggAvg: "AVG", AggNone: ""}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d.String() = %q", f, f.String())
		}
	}
	item := SelectItem{Agg: AggCount, Star: true}
	if item.String() != "COUNT(*)" {
		t.Errorf("item = %q", item.String())
	}
}

// Bind resolves every column the result reads — projection, GROUP BY keys
// and aggregate arguments — to its table's FROM position and its ordinal in
// that table's data schema, or -1 for a table with declared statistics only.
func TestBindResolvesResultColumnIDs(t *testing.T) {
	c := groupByCatalog()
	data := storage.NewTable("D", storage.MustSchema(storage.ColumnDef{Name: "x", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "k", Type: storage.TypeInt64}, storage.ColumnDef{Name: "v", Type: storage.TypeInt64}))
	data.MustAppendRow(storage.Int64(1), storage.Int64(2), storage.Int64(3))
	if _, err := c.Analyze(data, catalog.AnalyzeOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql                    string
		projection, group, sel []ColumnID
	}{
		{"SELECT v, U.w FROM D, U", []ColumnID{{0, 2}, {1, -1}}, nil, nil},
		{"SELECT d.x FROM U, D AS d WHERE d.k = U.k", []ColumnID{{1, 0}}, nil, nil},
		{"SELECT k, SUM(v), COUNT(*) FROM D GROUP BY k", nil, []ColumnID{{0, 1}}, []ColumnID{{0, 1}, {0, 2}, {}}},
	} {
		q, err := ParseAndBind(tc.sql, c)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		var sel []ColumnID
		for _, it := range q.Select {
			sel = append(sel, it.ID)
		}
		if !slices.Equal(q.ProjectionIDs, tc.projection) || !slices.Equal(q.GroupByIDs, tc.group) || !slices.Equal(sel, tc.sel) {
			t.Errorf("%s: projection %v, group by %v, select %v; want %v, %v, %v",
				tc.sql, q.ProjectionIDs, q.GroupByIDs, sel, tc.projection, tc.group, tc.sel)
		}
	}
}
