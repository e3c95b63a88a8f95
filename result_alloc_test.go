package els

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/storage"
)

// renderRows renders every cell as Value.String does, byte for byte, over
// every type and the values whose text is easiest to get wrong, at no row,
// one, MaxRows and one more than MaxRows; no rows is a nil Rows. Each row is
// capacity-capped, so appending to one leaves the next as it was.
func TestRenderRowsMatchesValueString(t *testing.T) {
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "i", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "f", Type: storage.TypeFloat64},
		storage.ColumnDef{Name: "s", Type: storage.TypeString},
		storage.ColumnDef{Name: "b", Type: storage.TypeBool},
	)
	values := [][]storage.Value{ // per column, cycled through the rows
		{storage.Int64(0), storage.Int64(-1), storage.Int64(math.MaxInt64), storage.Int64(math.MinInt64),
			storage.Null(storage.TypeInt64)},
		{storage.Float64(math.Copysign(0, -1)), storage.Float64(math.NaN()), storage.Float64(math.Inf(1)),
			storage.Float64(math.Inf(-1)), storage.Float64(1e21), storage.Float64(5e-324), storage.Float64(0.1),
			storage.Null(storage.TypeFloat64)},
		{storage.String64(""), storage.String64("a\"b\\c\n\t"), storage.String64("héllo, 世界"),
			storage.String64("\x00\xff "), storage.Null(storage.TypeString)},
		{storage.Bool(true), storage.Bool(false), storage.Null(storage.TypeBool)},
	}
	cols := []int{3, 0, 2, 1, 0} // out of schema order, one column twice
	for _, n := range []int{0, 1, MaxRows, MaxRows + 1} {
		tbl := storage.NewTable("t", schema)
		row := make([]storage.Value, len(values))
		for r := 0; r < n; r++ {
			for c, vals := range values {
				row[c] = vals[(r+c)%len(vals)]
			}
			tbl.MustAppendRow(row...)
		}
		rows := renderRows(tbl, cols)
		if n == 0 && rows != nil {
			t.Fatalf("no rows rendered as %#v, want nil", rows)
		}
		if len(rows) != min(n, MaxRows) {
			t.Fatalf("%d rows rendered %d, want %d", n, len(rows), min(n, MaxRows))
		}
		for r, cells := range rows {
			if len(cells) != len(cols) || cap(cells) != len(cols) {
				t.Fatalf("%d rows: row %d has len %d cap %d, want %d", n, r, len(cells), cap(cells), len(cols))
			}
			for i, c := range cols {
				if want := tbl.Value(r, c).String(); cells[i] != want {
					t.Fatalf("%d rows: row %d col %d rendered %q, Value.String %q", n, r, c, cells[i], want)
				}
			}
		}
		if len(rows) > 1 {
			next := append([]string(nil), rows[1]...)
			_ = append(rows[0], "appended")
			if !reflect.DeepEqual(rows[1], next) {
				t.Fatalf("appending to row 0 changed row 1 to %q", rows[1])
			}
		}
	}
}

// zipfRows returns n rows (k, v) whose k takes every one of groups values,
// Zipf-distributed past the first groups rows, as the benchmark's Z table.
func zipfRows(n, groups int) [][]int64 {
	zipf := rand.NewZipf(rand.New(rand.NewSource(7)), 1.1, 1, uint64(groups-1))
	rows := make([][]int64, n)
	for i := range rows {
		k := int64(i)
		if i >= groups {
			k = int64(zipf.Uint64())
		}
		rows[i] = []int64{k, int64(i)}
	}
	return rows
}

// A query's result allocates per structure, not per cell or per group: a
// warm projection of 100 or 1,000 rendered rows (of 2,500 passing a filter)
// and a warm GROUP BY of a loaded column over 50 or 500 groups stay under
// ceilings that do not grow with either. Rendered cell by cell, with one
// key string per group, the 1,000-row and 500-group queries took 2,975 and
// 2,479 allocations.
func TestQueryAllocationCeiling(t *testing.T) {
	sys := New()
	b := make([][]int64, 5000)
	for i := range b {
		b[i] = []int64{int64(i), int64(i * 7919 % len(b))}
	}
	if err := sys.LoadTable("B", []string{"k", "v"}, b); err != nil {
		t.Fatal(err)
	}
	for _, groups := range []int{50, 500} {
		if err := sys.LoadTable(fmt.Sprint("Z", groups), []string{"k", "v"}, zipfRows(10000, groups)); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		sql      string
		rows     int
		ceiling  float64
		rendered int
	}{
		{"SELECT B.k, B.v FROM B WHERE B.v < 100", 100, 100, 100},
		{"SELECT B.k, B.v FROM B WHERE B.v < 2500", 2500, 100, MaxRows},
		{"SELECT Z50.k, COUNT(*) FROM Z50 GROUP BY Z50.k", 50, 120, 50},
		{"SELECT Z500.k, COUNT(*) FROM Z500 GROUP BY Z500.k", 500, 120, 500},
	} {
		allocs := testing.AllocsPerRun(10, func() {
			res, err := sys.Query(c.sql, AlgorithmELS)
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != int64(c.rows) || len(res.Rows) != c.rendered {
				t.Fatalf("%s: count %d, %d rows rendered; want %d, %d", c.sql, res.Count, len(res.Rows), c.rows, c.rendered)
			}
		})
		t.Logf("%s: %v allocations", c.sql, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s: %v allocations per query, want at most %v", c.sql, allocs, c.ceiling)
		}
	}
}

// groupSQL groups table Z by k.
const groupSQL = "SELECT Z.k, COUNT(*), SUM(Z.v), MIN(Z.v) FROM Z GROUP BY Z.k"

// groupModel is groupSQL's result over rows (k, v), computed with a map and
// rendered through storage.Value, in the engine's output order: by the
// groups' Value.Key() strings.
func groupModel(rows [][]int64) [][]string {
	type agg struct{ n, sum, min int64 }
	groups := map[int64]*agg{}
	var keys []int64
	for _, r := range rows {
		g, ok := groups[r[0]]
		if !ok {
			g = &agg{min: r[1]}
			groups[r[0]], keys = g, append(keys, r[0])
		}
		g.n, g.sum, g.min = g.n+1, g.sum+r[1], min(g.min, r[1])
	}
	slices.SortFunc(keys, func(a, b int64) int {
		return strings.Compare(storage.Int64(a).Key(), storage.Int64(b).Key())
	})
	var out [][]string
	for _, k := range keys[:min(len(keys), MaxRows)] {
		g := groups[k]
		out = append(out, []string{storage.Int64(k).String(), storage.Int64(g.n).String(),
			storage.Float64(float64(g.sum)).String(), storage.Int64(g.min).String()})
	}
	return out
}

// groupRowsOf runs groupSQL on sys.
func groupRowsOf(t *testing.T, sys *System) [][]string {
	t.Helper()
	res, err := sys.Query(groupSQL, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	return res.Rows
}

// A GROUP BY of a loaded column builds its groups' order once per base
// column (executor.Aggregate's memo): eight goroutines grouping a freshly
// loaded column at once all get the map model's rows, as a serial run does.
func TestGroupMemoConcurrentFirstUse(t *testing.T) {
	rows := zipfRows(6000, 300)
	want := groupModel(rows)
	sys := New()
	if err := sys.LoadTable("Z", []string{"k", "v"}, rows); err != nil {
		t.Fatal(err)
	}
	got := make([][][]string, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if res, err := sys.Query(groupSQL, AlgorithmELS); err == nil {
				got[g] = res.Rows
			}
		}()
	}
	wg.Wait()
	got = append(got, groupRowsOf(t, sys))
	for g := range got {
		if !reflect.DeepEqual(got[g], want) {
			t.Fatalf("run %d grouped %d rows unlike the model's %d", g, len(got[g]), len(want))
		}
	}
}

// Reloading a table under the same name and row count replaces it: a GROUP
// BY that follows groups the new rows afresh, cold and warm, and is never
// served the order memoized over its predecessor's.
func TestGroupMemoReplacedTable(t *testing.T) {
	loads := [][][]int64{zipfRows(4000, 200), zipfRows(4000, 40), make([][]int64, 4000)}
	for i := range loads[2] {
		loads[2][i] = []int64{int64(4000 - i), int64(i)} // every key its own group, descending
	}
	sys := New()
	for i, rows := range loads {
		if err := sys.LoadTable("Z", []string{"k", "v"}, rows); err != nil {
			t.Fatal(err)
		}
		want := groupModel(rows)
		for run := 0; run < 2; run++ {
			if got := groupRowsOf(t, sys); !reflect.DeepEqual(got, want) {
				t.Fatalf("load %d, run %d: %d groups, the model's %d", i, run, len(got), len(want))
			}
		}
	}
}
