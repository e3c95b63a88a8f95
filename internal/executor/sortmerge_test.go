package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

var sortMergeOnly = []optimizer.JoinMethod{optimizer.SortMerge}

// kvSchema is a (k, v) table schema with the given key type; v is int64.
func kvSchema(k storage.Type) *storage.Schema {
	return storage.MustSchema(storage.ColumnDef{Name: "k", Type: k}, storage.ColumnDef{Name: "v", Type: storage.TypeInt64})
}

// loadKeys registers a (k, v) table whose v is the row number.
func loadKeys(t *testing.T, cat *catalog.Catalog, name string, typ storage.Type, keys ...storage.Value) {
	t.Helper()
	rows := make([][]storage.Value, len(keys))
	for i, k := range keys {
		rows[i] = []storage.Value{k, storage.Int64(int64(i))}
	}
	loadTable(t, cat, name, kvSchema(typ), rows)
}

func ints(ks ...int64) []storage.Value {
	out := make([]storage.Value, len(ks))
	for i, k := range ks {
		out[i] = storage.Int64(k)
	}
	return out
}

// smDiff runs L ⋈ R on k under a sort-merge-only repertoire through
// bruteDiff, with optional extra predicates.
func smDiff(t *testing.T, cat *catalog.Catalog, l, r string, extra ...expr.Predicate) *Result {
	t.Helper()
	preds := append([]expr.Predicate{expr.NewJoin(ref(l, "k"), expr.OpEQ, ref(r, "k"))}, extra...)
	return bruteDiff(t, cat, []cardest.TableRef{{Table: l}, {Table: r}}, preds, nil, sortMergeOnly)
}

// Duplicate keys on both sides: every equal-key run emits its full product,
// keys ascending, left rows major and right rows minor within a key, each
// side in its input order.
func TestSortMergeDuplicateRuns(t *testing.T) {
	cat := catalog.New()
	loadKeys(t, cat, "L", storage.TypeInt64, ints(5, 2, 5, 9, 2, 5)...)
	loadKeys(t, cat, "R", storage.TypeInt64, ints(5, 7, 2, 5, 2, 2)...)
	res := smDiff(t, cat, "L", "R")
	// 2: 2×3, 5: 3×2.
	if res.Stats.RowsProduced != 12 {
		t.Fatalf("rows = %d, want 12", res.Stats.RowsProduced)
	}
	out := res.Table
	lv, rv := 1, 3 // the v columns of the left and the right input
	for r := 1; r < out.NumRows(); r++ {
		prev := [3]int64{out.Value(r-1, 0).Int(), out.Value(r-1, lv).Int(), out.Value(r-1, rv).Int()}
		cur := [3]int64{out.Value(r, 0).Int(), out.Value(r, lv).Int(), out.Value(r, rv).Int()}
		if slices.Compare(prev[:], cur[:]) >= 0 {
			t.Fatalf("row %d %v does not follow row %d %v in (key, left row, right row) order", r, cur, r-1, prev)
		}
	}
}

// NULL keys sort first and never join, but stepping over each one is a
// merge-loop iteration and counts as a comparison.
func TestSortMergeNullKeys(t *testing.T) {
	cat := catalog.New()
	null := storage.Null(storage.TypeInt64)
	loadKeys(t, cat, "L", storage.TypeInt64, storage.Int64(3), null, storage.Int64(1), null)
	loadKeys(t, cat, "R", storage.TypeInt64, storage.Int64(3), storage.Int64(2), null, storage.Int64(3), storage.Int64(1))
	res := smDiff(t, cat, "L", "R")
	if res.Stats.RowsProduced != 3 {
		t.Fatalf("rows = %d, want 3", res.Stats.RowsProduced)
	}
	// Sorting 4 and 5 rows is charged 4·2 + 5·2; the merge takes 3 steps
	// over NULLs, then 1=1, 3>2, 3=3 — whichever input the planner puts
	// on the left.
	if want := int64(8 + 10 + 6); res.Stats.Comparisons != want {
		t.Fatalf("comparisons = %d, want %d", res.Stats.Comparisons, want)
	}
	// Two scans (9), three candidate pairs, both inputs once more (9).
	if res.Stats.TuplesScanned != 21 {
		t.Fatalf("tuples scanned = %d, want 21", res.Stats.TuplesScanned)
	}
}

// -0.0 and 0.0 are one key; negative floats order below them.
func TestSortMergeFloatZeroes(t *testing.T) {
	cat := catalog.New()
	neg := math.Copysign(0, -1)
	f := storage.Float64
	loadKeys(t, cat, "L", storage.TypeFloat64, f(neg), f(1.5), f(0), f(-2.5), storage.Null(storage.TypeFloat64))
	loadKeys(t, cat, "R", storage.TypeFloat64, f(0), f(-2.5), f(neg), f(math.Inf(-1)), f(3))
	res := smDiff(t, cat, "L", "R")
	if res.Stats.RowsProduced != 5 { // zeroes 2×2, -2.5 once
		t.Fatalf("rows = %d, want 5", res.Stats.RowsProduced)
	}
}

func TestSortMergeStringKeys(t *testing.T) {
	cat := catalog.New()
	s := storage.String64
	loadKeys(t, cat, "L", storage.TypeString, s("pear"), s("apple"), s(""), storage.Null(storage.TypeString), s("fig"), s("apple"))
	loadKeys(t, cat, "R", storage.TypeString, s("fig"), s("apple"), s("app"), s(""), storage.Null(storage.TypeString), s("zebra"))
	res := smDiff(t, cat, "L", "R")
	if res.Stats.RowsProduced != 4 { // apple×2, "", fig
		t.Fatalf("rows = %d, want 4", res.Stats.RowsProduced)
	}
}

// Bool keys merge as 0/1, and an int64 key meets a float64 key as float64,
// so 1 joins 1.0 as it does in every other join method. A residual over v
// rides along; hundreds of rows make the run products span several pair
// batches.
func TestSortMergeBoolAndMixedKeys(t *testing.T) {
	cat := catalog.New()
	loadKeyTypeTables(t, cat)
	res := smDiff(t, cat, "B1", "B2", expr.NewJoin(ref("B1", "v"), expr.OpLT, ref("B2", "v")))
	if res.Stats.RowsProduced == 0 {
		t.Fatal("bool-key join produced no rows; the case has no teeth")
	}
	// MI cycles 1,2,3 and MF cycles 1,2,2.5, NULL where i%7 == 3: the keys
	// 1 and 2 match across the types.
	if res := smDiff(t, cat, "MI", "MF"); res.Stats.RowsProduced == 0 {
		t.Fatal("int64 keys matched no float64 key; the case has no teeth")
	}
}

// Beyond 2^53 distinct int64 keys round to one float64. Both inputs merge
// as float64, as storage.Compare compares them, so every integer joins the
// float it rounds to: 2^53 and 2^53+1 (twice) each join 2^53, and 7 joins 7.
func TestSortMergeMixedKeysBeyondFloatPrecision(t *testing.T) {
	cat := catalog.New()
	big := int64(1) << 53
	loadKeys(t, cat, "L", storage.TypeInt64, ints(big+1, big, 7, big+1)...)
	loadKeys(t, cat, "R", storage.TypeFloat64, storage.Float64(float64(big)), storage.Float64(7))
	if res := smDiff(t, cat, "L", "R"); res.Stats.RowsProduced != 4 {
		t.Fatalf("rows = %d, want 4", res.Stats.RowsProduced)
	}
}

// A residual predicate filters each candidate pair after it is counted as
// visited; its comparisons short-circuit per pair.
func TestSortMergeResidual(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(300, 200)...)
	res := smDiff(t, cat, "T0", "T1",
		expr.NewJoin(ref("T0", "v"), expr.OpLT, ref("T1", "v")),
		expr.NewJoin(ref("T0", "v"), expr.OpNE, ref("T1", "k")))
	preds := []expr.Predicate{
		expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k")),
		expr.NewJoin(ref("T0", "v"), expr.OpLT, ref("T1", "v")),
		expr.NewJoin(ref("T0", "v"), expr.OpNE, ref("T1", "k")),
	}
	want := bruteForceJoinCount(t, cat, []string{"T0", "T1"}, []string{"T0", "T1"}, preds)
	if res.Stats.RowsProduced != int64(want) {
		t.Fatalf("rows = %d, brute force %d", res.Stats.RowsProduced, want)
	}
}

// A scan filter that keeps nothing hands the join an empty input, on one
// side or on both.
func TestSortMergeEmptyInputs(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(50, 40)...)
	none := func(tbl string) expr.Predicate { return expr.NewConst(ref(tbl, "v"), expr.OpLT, storage.Int64(-1)) }
	for _, extra := range [][]expr.Predicate{{none("T0")}, {none("T1")}, {none("T0"), none("T1")}} {
		if res := smDiff(t, cat, "T0", "T1", extra...); res.Stats.RowsProduced != 0 {
			t.Fatalf("rows = %d from an empty input", res.Stats.RowsProduced)
		}
	}
}

// A NaN key has no place in an order (storage.Table.SortPermutation says
// what the kernel does then), so a merge over such a column means nothing
// and no oracle can say what it should return. What still holds: the merge
// completes, and repeats itself exactly under a byte budget.
func TestSortMergeNaNKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	keys := func(n int) []storage.Value {
		out := make([]storage.Value, n)
		for i := range out {
			switch rng.Intn(8) {
			case 0:
				out[i] = storage.Float64(math.NaN())
			case 1:
				out[i] = storage.Null(storage.TypeFloat64)
			default:
				out[i] = storage.Float64(float64(rng.Intn(12)))
			}
		}
		return out
	}
	for i := 0; i < 5; i++ {
		cat := catalog.New()
		loadKeys(t, cat, "L", storage.TypeFloat64, keys(60)...)
		loadKeys(t, cat, "R", storage.TypeFloat64, keys(45)...)
		plan := planQuery(t, cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}},
			[]expr.Predicate{expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k"))}, nil, sortMergeOnly)
		runBoth(t, cat, plan, sortMergeOnly)
	}
}

// smRunErr executes the sort-merge plan of T0 ⋈ T1 under limits and
// returns its error.
func smRunErr(t *testing.T, cat *catalog.Catalog, limits governor.Limits) error {
	t.Helper()
	plan := planQuery(t, cat, []cardest.TableRef{{Table: "T0"}, {Table: "T1"}},
		[]expr.Predicate{expr.NewJoin(ref("T0", "k"), expr.OpEQ, ref("T1", "k"))}, nil, sortMergeOnly)
	_, err := NewGoverned(cat, governor.New(context.Background(), limits)).Execute(plan)
	return err
}

// A row budget that covers the scans but not the join trips in the middle
// of the merge, typed, and so does a tuple budget.
func TestSortMergeRowBudgetMidMerge(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(300, 200)...) // 10 keys: about 6000 output rows
	for _, limits := range []governor.Limits{{MaxRows: 500 + 4500}, {MaxTuples: 500 + 4500}} {
		if err := smRunErr(t, cat, limits); !errors.Is(err, governor.ErrBudgetExceeded) {
			t.Fatalf("%+v: err = %v, want ErrBudgetExceeded", limits, err)
		}
	}
}

// The sort scratch cannot be partitioned: a byte budget below it refuses the
// join with a typed ErrMemory naming the operator, and one just above the
// inputs plus the scratch admits it.
func TestSortMergeScratchOverBudget(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(300, 200)...)
	var merr *governor.MemoryError
	err := smRunErr(t, cat, governor.Limits{MaxMemory: sortScratchPerRow*500 - 1})
	if !errors.Is(err, governor.ErrMemory) || !errors.As(err, &merr) || merr.Operator != "sort-merge scratch" {
		t.Fatalf("err = %v, want ErrMemory from the sort-merge scratch", err)
	}
	if err := smRunErr(t, cat, governor.Limits{MaxMemory: 1 << 20}); err != nil {
		t.Fatalf("under a roomy budget: %v", err)
	}
}

// The ledger charges a batch for the selection vector it asked for, and a
// scan for the row bitmap it asked for, not for the capacity the
// process-wide arenas recycled: a small filtered scan reads the same peak
// bytes whether or not an earlier join left colBatch-sized pair batches
// behind or an earlier scan a larger bitmap.
func TestScanArenaChargeIgnoresRecycledCapacity(t *testing.T) {
	cat := catalog.New()
	loadKeys(t, cat, "S", storage.TypeInt64, ints(make([]int64, 100)...)...)
	plan := planQuery(t, cat, []cardest.TableRef{{Table: "S"}},
		[]expr.Predicate{expr.NewConst(ref("S", "v"), expr.OpLT, storage.Int64(1))}, nil, sortMergeOnly)
	selArena.Put(make([]int, 0, colBatch)) // what a pair sink releases
	big := make([]uint64, colBatch)
	rowPool.Put(&big)
	gov := governor.New(context.Background(), governor.Limits{})
	if _, err := NewGoverned(cat, gov).Execute(plan); err != nil {
		t.Fatal(err)
	}
	if _, peak, _ := gov.MemoryUsage(); peak != 8*100+8*2 {
		t.Fatalf("peak bytes = %d, want the 100-row selection vector's and 2-word bitmap's %d", peak, 8*100+8*2)
	}
}

var benchSink *Result

// BenchmarkSortMerge times one 25 k ⋈ 5 k sort-merge join (scans included)
// per key type.
func BenchmarkSortMerge(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, typ := range []storage.Type{storage.TypeInt64, storage.TypeString} {
		key := func() storage.Value {
			k := rng.Intn(5000)
			if typ == storage.TypeString {
				return storage.String64(fmt.Sprintf("key-%06d", k))
			}
			return storage.Int64(int64(k))
		}
		cat := catalog.New()
		for name, n := range map[string]int{"L": 25000, "R": 5000} {
			tbl := storage.NewTable(name, kvSchema(typ))
			for i := 0; i < n; i++ {
				tbl.MustAppendRow(key(), storage.Int64(int64(i)))
			}
			if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		plan := planQuery(b, cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}},
			[]expr.Predicate{expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k"))}, nil, sortMergeOnly)
		b.Run(typ.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := NewGoverned(cat, governor.New(context.Background(), governor.Limits{})).Execute(plan)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = res
			}
		})
	}
}
