package executor

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sort"
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

// tableRows lists tbl's rows.
func tableRows(tbl *storage.Table) [][]storage.Value {
	rows := make([][]storage.Value, tbl.NumRows())
	for r := range rows {
		rows[r] = tbl.Row(r)
	}
	return rows
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
		t.Fatalf("empty global: %v", tableRows(out))
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

// aggState accumulates one aggregate for one group of mapAggregate.
type aggState struct {
	count int64
	sum   float64
	min   storage.Value
	max   storage.Value
	seen  bool
}

// mapAggregate is Aggregate's former body, kept as the model the typed
// kernel is held to: every row boxed, grouped in a Go map by the
// concatenation of its key columns' Value.Key() strings, and folded into its
// group in row order. outSchema is Aggregate's output schema; the model
// charges no governor.
func mapAggregate(tbl *storage.Table, outSchema *storage.Schema, groupCols []int, aggs []AggSpec) *storage.Table {
	type group struct {
		keyVals []storage.Value
		states  []aggState
	}
	groups := make(map[string]*group)
	var keys []string
	keyOf := func(row int) string {
		k := ""
		for _, c := range groupCols {
			k += tbl.Value(row, c).Key() + "\x00"
		}
		return k
	}
	for r := 0; r < tbl.NumRows(); r++ {
		k := keyOf(r)
		g, ok := groups[k]
		if !ok {
			g = &group{states: make([]aggState, len(aggs))}
			for _, c := range groupCols {
				g.keyVals = append(g.keyVals, tbl.Value(r, c))
			}
			groups[k] = g
			keys = append(keys, k)
		}
		for i, a := range aggs {
			st := &g.states[i]
			if a.Op == AggCountStar {
				st.count++
				continue
			}
			v := tbl.Value(r, a.Col)
			if v.IsNull() {
				continue
			}
			st.count++
			switch a.Op {
			case AggSum, AggAvg:
				st.sum += v.AsFloat()
			case AggMin:
				if !st.seen || storage.Compare(v, st.min) < 0 {
					st.min = v
				}
			case AggMax:
				if !st.seen || storage.Compare(v, st.max) > 0 {
					st.max = v
				}
			}
			st.seen = true
		}
	}
	// A global aggregate over empty input still yields one row.
	if len(groupCols) == 0 && len(groups) == 0 {
		groups[""] = &group{states: make([]aggState, len(aggs))}
		keys = append(keys, "")
	}
	sort.Strings(keys)

	out := storage.NewTable("aggregate", outSchema)
	row := make([]storage.Value, 0, outSchema.NumColumns())
	for _, k := range keys {
		g := groups[k]
		row = row[:0]
		row = append(row, g.keyVals...)
		for i, a := range aggs {
			st := g.states[i]
			switch a.Op {
			case AggCountStar, AggCount:
				row = append(row, storage.Int64(st.count))
			case AggSum:
				if st.count == 0 {
					row = append(row, storage.Null(storage.TypeFloat64))
				} else {
					row = append(row, storage.Float64(st.sum))
				}
			case AggAvg:
				if st.count == 0 {
					row = append(row, storage.Null(storage.TypeFloat64))
				} else {
					row = append(row, storage.Float64(st.sum/float64(st.count)))
				}
			case AggMin:
				if !st.seen {
					row = append(row, storage.Null(outSchema.Column(len(g.keyVals)+i).Type))
				} else {
					row = append(row, st.min)
				}
			case AggMax:
				if !st.seen {
					row = append(row, storage.Null(outSchema.Column(len(g.keyVals)+i).Type))
				} else {
					row = append(row, st.max)
				}
			}
		}
		out.MustAppendRow(row...)
	}
	return out
}

// sameValue reports whether two values are the same bit for bit: type,
// NULL-ness and payload, a float64's sign of zero and NaN pattern included.
func sameValue(a, b storage.Value) bool {
	if a.Type() != b.Type() || a.IsNull() != b.IsNull() {
		return false
	}
	if a.IsNull() {
		return true
	}
	switch a.Type() {
	case storage.TypeInt64:
		return a.Int() == b.Int()
	case storage.TypeFloat64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case storage.TypeString:
		return a.Str() == b.Str()
	default:
		return a.BoolVal() == b.BoolVal()
	}
}

// aggModelTable is a random table of n rows with a key column and a value
// column of each type — g/v int64, float64, string, bool, in that order —
// over small domains, so groups repeat, about one value in six NULL. The
// float64 domains hold -0.0 and +0.0 and two NaN payloads.
func aggModelTable(rng *rand.Rand, n int) *storage.Table {
	types := []storage.Type{storage.TypeInt64, storage.TypeFloat64, storage.TypeString, storage.TypeBool}
	var defs []storage.ColumnDef
	for _, prefix := range []string{"g", "v"} {
		for _, typ := range types {
			defs = append(defs, storage.ColumnDef{Name: fmt.Sprintf("%s%s", prefix, typ), Type: typ})
		}
	}
	floats := []float64{math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(0x7FF8000000000001),
		1.5, -2.25, 1e300, 0.1, -7}
	strs := []string{"", "a", "b", "ab", "abcdefgh", "abcdefghi"}
	tbl := storage.NewTable("m", storage.MustSchema(defs...))
	row := make([]storage.Value, len(defs))
	for r := 0; r < n; r++ {
		for c, d := range defs {
			domain := 4 // key columns
			if c >= len(types) {
				domain = 1000
			}
			switch {
			case rng.IntN(6) == 0:
				row[c] = storage.Null(d.Type)
			case d.Type == storage.TypeInt64:
				row[c] = storage.Int64(int64(rng.IntN(domain)) - 2)
			case d.Type == storage.TypeFloat64:
				row[c] = storage.Float64(floats[rng.IntN(min(domain, len(floats)))])
			case d.Type == storage.TypeString:
				row[c] = storage.String64(strs[rng.IntN(min(domain, len(strs)))])
			default:
				row[c] = storage.Bool(rng.IntN(2) == 0)
			}
		}
		tbl.MustAppendRow(row...)
	}
	return tbl
}

// The typed grouping kernel returns the map model's rows, in the model's
// order, bit for bit — SUM and AVG folded in the same row order, MIN and MAX
// keeping the same row's value through -0.0/+0.0 ties and NaNs — over random
// tables grouped by 0–3 columns of every key type, NULLs, all six aggregate
// operators, and empty input.
func TestAggregateMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 1))
	ops := []AggOp{AggCountStar, AggCount, AggSum, AggMin, AggMax, AggAvg}
	for trial := 0; trial < 300; trial++ {
		n := rng.IntN(400)
		if trial%10 == 0 {
			n = 0
		}
		tbl := aggModelTable(rng, n)
		groupCols := rng.Perm(4)[:rng.IntN(4)] // key columns, in any order
		var aggs []AggSpec
		for i, op := range ops {
			col := 4 + rng.IntN(4) // any value column
			if op == AggSum || op == AggAvg {
				col = 4 + rng.IntN(2) // int64 or float64
			}
			aggs = append(aggs, AggSpec{Op: op, Col: col, Name: fmt.Sprintf("a%d", i)})
		}
		got, err := (&Executor{}).Aggregate(tbl, groupCols, aggs)
		if err != nil {
			t.Fatal(err)
		}
		want := mapAggregate(tbl, got.Schema(), groupCols, aggs)
		if got.NumRows() != want.NumRows() {
			t.Fatalf("trial %d (%d rows, group by %v): %d groups, the model has %d", trial, n, groupCols, got.NumRows(), want.NumRows())
		}
		for r := 0; r < got.NumRows(); r++ {
			for c := 0; c < got.Schema().NumColumns(); c++ {
				if g, w := got.Value(r, c), want.Value(r, c); !sameValue(g, w) {
					t.Fatalf("trial %d (%d rows, group by %v): row %d column %s = %v, the model has %v",
						trial, n, groupCols, r, got.Schema().Column(c).Name, g, w)
				}
			}
		}
	}
}

// groupFixture is a table of n rows over `groups` int64 keys, each row with
// an int64 and a float64 value, and the aggregates a GROUP BY of it asks for.
func groupFixture(n, groups int) (*storage.Table, []AggSpec) {
	tbl := storage.NewTable("g", storage.MustSchema(
		storage.ColumnDef{Name: "g", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "v", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "f", Type: storage.TypeFloat64},
	))
	for r := 0; r < n; r++ {
		tbl.MustAppendRow(storage.Int64(int64(r*7919%groups)), storage.Int64(int64(r)), storage.Float64(float64(r)/3))
	}
	return tbl, []AggSpec{{Op: AggCountStar, Name: "n"}, {Op: AggSum, Col: 1, Name: "s"},
		{Op: AggMin, Col: 2, Name: "lo"}, {Op: AggAvg, Col: 2, Name: "a"}}
}

// Grouping allocates neither per row nor per group: 10,000 and 20,000 rows
// over 50 or 500 groups cost the same few allocations, the groups' sort
// keys one buffer. The boxed map grouping it replaced allocated about three
// times per row, and one key string per group allocated about three times
// per group.
func TestAggregateAllocationCeiling(t *testing.T) {
	const ceiling = 48
	for _, size := range []struct{ n, groups int }{{10000, 500}, {20000, 500}, {20000, 50}} {
		tbl, aggs := groupFixture(size.n, size.groups)
		allocs := testing.AllocsPerRun(5, func() {
			out, err := (&Executor{}).Aggregate(tbl, []int{0}, aggs)
			if err != nil || out.NumRows() != size.groups {
				t.Fatalf("%v groups, err %v", out.NumRows(), err)
			}
		})
		t.Logf("%v allocations at %d rows over %d groups", allocs, size.n, size.groups)
		if allocs > ceiling {
			t.Errorf("%v allocations at %d rows over %d groups, want at most %d", allocs, size.n, size.groups, ceiling)
		}
	}
}

// A GROUP BY over a view of a base column groups through the build table
// the hash join memoizes for the column (storage.Table.Memo). For each key
// representation, over a column with NULLs: two Aggregates return identical
// tables, the first allocates at least the build's slot and row arrays more
// than the second (which builds none),
// and a hash join on the column afterwards, reading the same memo, pairs
// exactly the rows a join over an unshared copy of the column pairs.
func TestAggregateReusesBaseColumnBuild(t *testing.T) {
	const n, groups = 10000, 500
	kinds := []struct {
		name string
		typ  storage.Type
		rep  keyRep
		key  func(i int) storage.Value
	}{
		{"int64", storage.TypeInt64, repNative, func(i int) storage.Value { return storage.Int64(int64(i * 7919 % groups)) }},
		{"float bits", storage.TypeFloat64, repFloat, func(i int) storage.Value { return storage.Float64(float64(i*7919%groups) / 4) }},
		{"string", storage.TypeString, repNative, func(i int) storage.Value { return storage.String64(fmt.Sprint("g", i*7919%groups)) }},
		{"boxed bool", storage.TypeBool, repBoxed, func(i int) storage.Value { return storage.Bool(i%3 == 0) }},
	}
	aggs := []AggSpec{{Op: AggCountStar, Name: "n"}, {Op: AggSum, Col: 1, Name: "s"}}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			base := keyColumns(t, probeKind{typ: kind.typ, key: kind.key}, "b", n, func(i int) int { return i },
				func(i int) bool { return i%10 == 4 })
			view := func() *storage.Table {
				v, err := base.View("v", base.Schema(), nil)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			group := func() (*storage.Table, uint64) {
				in := view()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				out, err := (&Executor{}).Aggregate(in, []int{0}, aggs)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				return out, after.TotalAlloc - before.TotalAlloc
			}
			first, cold := group()
			second, warm := group()
			if first.NumRows() != second.NumRows() || first.NumRows() < 2 {
				t.Fatalf("%d groups, then %d", first.NumRows(), second.NumRows())
			}
			for r := 0; r < first.NumRows(); r++ {
				for c := 0; c < first.Schema().NumColumns(); c++ {
					if a, b := first.Value(r, c), second.Value(r, c); !sameValue(a, b) {
						t.Fatalf("row %d col %d: %s, then %s", r, c, a, b)
					}
				}
			}
			if !first.Value(0, 0).IsNull() {
				t.Fatalf("first group is %s, want the NULL group", first.Value(0, 0))
			}
			// The build's slot and row arrays, whatever its addressing.
			built := view().Memo(0, kind.rep, func() any {
				t.Fatal("the grouping memoized no build")
				return nil
			}).(interface{ arrayBytes() int64 }).arrayBytes()
			t.Logf("cold %d bytes, warm %d bytes, the build's arrays %d", cold, warm, built)
			if int64(cold)-int64(warm) < built {
				t.Errorf("cold run allocated %d bytes, warm %d; want the build's arrays (%d) on the cold run only", cold, warm, built)
			}

			probe := keyColumns(t, probeKind{typ: kind.typ, key: kind.key}, "p", 60, func(i int) int { return i },
				func(i int) bool { return i%11 == 5 })
			copied := storage.NewTable("c", base.Schema())
			if err := copied.AppendRange(base, 0, base.NumRows()); err != nil {
				t.Fatal(err)
			}
			var pairs [2]*storage.Table
			for i, right := range []*storage.Table{view(), copied} {
				schema, err := joinSchema(probe.Schema(), right.Schema())
				if err != nil {
					t.Fatal(err)
				}
				spec := &hashSpec{joinSpec: &joinSpec{left: probe, right: right, outSchema: schema}}
				(&Executor{}).bindHashKeys(spec, false)
				sink, err := spec.join(nil, nil, &Stats{})
				if err != nil {
					t.Fatal(err)
				}
				pairs[i] = sink.out
			}
			if pairs[0].NumRows() != pairs[1].NumRows() || pairs[0].NumRows() == 0 {
				t.Fatalf("%d pairs through the shared build, %d through a fresh one", pairs[0].NumRows(), pairs[1].NumRows())
			}
			for r := 0; r < pairs[0].NumRows(); r++ {
				if l, r2 := pairs[0].Value(r, 1).Int(), pairs[0].Value(r, 3).Int(); l != pairs[1].Value(r, 1).Int() || r2 != pairs[1].Value(r, 3).Int() {
					t.Fatalf("pair %d is (%d, %d) through the shared build, (%d, %d) through a fresh one",
						r, l, r2, pairs[1].Value(r, 1).Int(), pairs[1].Value(r, 3).Int())
				}
			}
		})
	}
}

// A GROUP BY over a view of a base column publishes the column's groups in
// output order on its memo (storage.Table.Memo), next to the build they
// come from. A warm run reads the order it finds there and sorts nothing:
// it allocates no more at 500 groups than at 50, and a view whose memo
// holds another order (here the sorted one reversed) is grouped in that
// order. Over a view or not, cold or warm, the rows are the same.
func TestAggregateMemoizesGroupOrder(t *testing.T) {
	const ceiling = 32
	view := func(b *storage.Table) *storage.Table {
		v, err := b.View("v", b.Schema(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	aggregate := func(in *storage.Table, aggs []AggSpec) [][]storage.Value {
		out, err := (&Executor{}).Aggregate(in, []int{0}, aggs)
		if err != nil {
			t.Fatal(err)
		}
		return tableRows(out)
	}
	var warm [2]float64
	for i, groups := range []int{50, 500} {
		base, aggs := groupFixture(10000, groups)
		want := aggregate(base, aggs)
		for run := 0; run < 2; run++ {
			if got := aggregate(view(base), aggs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d groups, run %d over a view: %v, want %v", groups, run, got, want)
			}
		}
		memo := view(base).Memo(0, groupOrder{}, func() any {
			t.Fatal("the grouping memoized no order")
			return nil
		}).(sortedGroups)
		warm[i] = testing.AllocsPerRun(5, func() {
			if _, err := (&Executor{}).Aggregate(view(base), []int{0}, aggs); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d groups: %v allocations warm", groups, warm[i])
		if warm[i] > ceiling {
			t.Errorf("%d groups: %v allocations per warm Aggregate, want at most %d", groups, warm[i], ceiling)
		}

		other, _ := groupFixture(10000, groups)
		reversed := sortedGroups{memo.groups, slices.Clone(memo.order)}
		slices.Reverse(reversed.order)
		view(other).Memo(0, groupOrder{}, func() any { return reversed })
		got := aggregate(view(other), aggs)
		slices.Reverse(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d groups: a memoized reversed order was not followed: %v, want %v reversed", groups, got, want)
		}
	}
	if warm[1] > warm[0] {
		t.Errorf("%v allocations per warm Aggregate at 500 groups, %v at 50; want no growth", warm[1], warm[0])
	}
}
