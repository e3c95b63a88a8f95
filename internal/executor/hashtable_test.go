package executor

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// mapBuild is the hash join's former build side, kept as the model the flat
// table is held to: a Go map from each key to its build rows, appended in
// row order.
func mapBuild[K comparable](keys []K, nulls []bool, rows []int) map[K][]int {
	m := make(map[K][]int)
	for i := 0; i < rowCount(rows, len(keys)); i++ {
		if r := rowAt(rows, i); nulls == nil || !nulls[r] {
			m[keys[r]] = append(m[keys[r]], r)
		}
	}
	return m
}

// modelSeeds are the two hash seeds every model check builds its table
// under; a join's output must not depend on which one the process drew.
var modelSeeds = [2]uint64{0, 0x2545F4914F6CDD1D}

// maxAvgProbe bounds the average probe length — slots inspected to find a
// key present in the table — over a structured key set. Linear probing at
// the table's highest load, one half, expects 1.5 for well-spread hashes; a
// hash that left structured keys clustered would run far above it.
const maxAvgProbe = 2.0

// checkTable builds the flat table over the build keys under both seeds and
// requires every lookup the join kernel would make — each non-NULL probe
// key, and each distinct build key — to return the model's row list, in
// order, and the same list under either seed. It returns the larger of the
// two seeds' average probe lengths.
func checkTable[K comparable](t *testing.T, build []K, bnulls []bool, rows []int, probe []K, pnulls []bool, hashOf func(uint64) func(K) uint64) float64 {
	t.Helper()
	want := mapBuild(build, bnulls, rows)
	var keys []K
	for i, k := range probe {
		if pnulls == nil || !pnulls[i] {
			keys = append(keys, k)
		}
	}
	seen := map[K]bool{}
	for i := 0; i < rowCount(rows, len(build)); i++ {
		if k := build[rowAt(rows, i)]; !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	var outputs [2][]int
	worst := 0.0
	for s, seed := range modelSeeds {
		table := newHashTable(build, bnulls, rows, hashOf(seed))
		for _, k := range keys {
			got := table.lookup(k)
			if !slices.Equal(got, want[k]) {
				t.Fatalf("seed %#x: key %v → rows %v, the map gives %v", seed, k, got, want[k])
			}
			outputs[s] = append(append(outputs[s], got...), -1)
		}
		worst = max(worst, avgProbe(table))
	}
	if !slices.Equal(outputs[0], outputs[1]) {
		t.Fatal("the two seeds' tables returned different row lists")
	}
	return worst
}

// avgProbe is the mean number of slots a lookup of a present key inspects:
// one more than the key's distance from its home slot.
func avgProbe[K comparable](table hashTable[K]) float64 {
	mask := uint64(len(table.slots) - 1)
	total, keys := 0, 0
	for i, s := range table.slots {
		if s.hi != 0 {
			total += int((uint64(i)-table.hash(s.key))&mask) + 1
			keys++
		}
	}
	if keys == 0 {
		return 0
	}
	return float64(total) / float64(keys)
}

// column1 is a one-column table of the given values.
func column1(t *testing.T, typ storage.Type, vals ...storage.Value) *storage.Table {
	t.Helper()
	tbl := storage.NewTable("c", storage.MustSchema(storage.ColumnDef{Name: "k", Type: typ}))
	for _, v := range vals {
		if err := tbl.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

// intKeys and the rest derive a one-column table's keys and NULL flags the
// way bindHashKeys does for each key kind.
func intKeys(tbl *storage.Table) ([]int64, []bool) {
	d := tbl.ColumnData(0)
	return d.Ints, d.Nulls
}

func bitKeys(tbl *storage.Table) ([]uint64, []bool) {
	k, _ := floatKeys(tbl, 0)
	return k, tbl.ColumnData(0).Nulls
}

func strKeys(tbl *storage.Table) ([]string, []bool) {
	d := tbl.ColumnData(0)
	return d.Strs, d.Nulls
}

func boolKeys(tbl *storage.Table) ([]string, []bool) {
	k, _ := boxedKeys(tbl, 0)
	return k, tbl.ColumnData(0).Nulls
}

// The flat table returns exactly the map's row lists, in the same order, for
// every key kind the hash join binds — NULL keys on both sides and an empty
// build included — and for the row lists the partition policy passes in.
func TestHashTableMatchesMapModel(t *testing.T) {
	null, i64, f64, str := storage.Null, storage.Int64, storage.Float64, storage.String64
	nan2 := math.Float64frombits(0x7FF8000000000001) // a second quiet-NaN pattern
	negNaN := math.Float64frombits(0xFFF8000000000000)

	t.Run("int64", func(t *testing.T) {
		// NULLs store 0: a probe of the real key 0 must not find them.
		build := column1(t, storage.TypeInt64, i64(5), null(storage.TypeInt64), i64(0), i64(5), i64(-3),
			null(storage.TypeInt64), i64(math.MinInt64), i64(math.MaxInt64), i64(5), i64(0))
		probe := column1(t, storage.TypeInt64, i64(0), null(storage.TypeInt64), i64(5), i64(7), i64(math.MinInt64))
		bk, bn := intKeys(build)
		pk, pn := intKeys(probe)
		checkTable(t, bk, bn, nil, pk, pn, wordHash[int64])
	})
	t.Run("float bits", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		build := column1(t, storage.TypeFloat64, f64(negZero), f64(0), f64(math.NaN()), f64(nan2), f64(negNaN),
			null(storage.TypeFloat64), f64(1.5), f64(math.NaN()), f64(math.Inf(-1)), f64(negZero))
		probe := column1(t, storage.TypeFloat64, f64(0), f64(negZero), f64(math.NaN()), f64(nan2), f64(negNaN),
			null(storage.TypeFloat64), f64(1.5), f64(2.5))
		bk, bn := bitKeys(build)
		pk, pn := bitKeys(probe)
		checkTable(t, bk, bn, nil, pk, pn, wordHash[uint64])
		table := newHashTable(bk, bn, nil, wordHash[uint64](0))
		if got := table.lookup(bk[1]); len(got) != 3 {
			t.Fatalf("0.0 found rows %v, want 3: -0.0 and 0.0 are one key", got)
		}
	})
	t.Run("int64 vs float64", func(t *testing.T) {
		// An int64 column met by a float64 one: both sides as float64 bits.
		build := column1(t, storage.TypeInt64, i64(2), i64(0), null(storage.TypeInt64), i64(2), i64(-7))
		probe := column1(t, storage.TypeFloat64, f64(2), f64(math.Copysign(0, -1)), f64(2.5), f64(-7))
		bk, bn := bitKeys(build)
		pk, pn := bitKeys(probe)
		checkTable(t, bk, bn, nil, pk, pn, wordHash[uint64])
	})
	t.Run("string", func(t *testing.T) {
		// Lengths either side of the hash's eight-byte step.
		vals := []string{"", "a", "abcdefg", "abcdefgh", "abcdefghi", "abcdefgh\x00", "abcdefghabcdefgh", "b"}
		var bv, pv []storage.Value
		for i, s := range vals {
			bv = append(bv, str(s), str(s))
			if i%2 == 0 {
				bv = append(bv, null(storage.TypeString))
			}
			pv = append(pv, str(s), str(s+"!"))
		}
		pv = append(pv, null(storage.TypeString))
		bk, bn := strKeys(column1(t, storage.TypeString, bv...))
		pk, pn := strKeys(column1(t, storage.TypeString, pv...))
		checkTable(t, bk, bn, nil, pk, pn, strHash)
	})
	t.Run("bool", func(t *testing.T) {
		b := storage.Bool
		bk, bn := boolKeys(column1(t, storage.TypeBool, b(true), b(false), null(storage.TypeBool), b(true)))
		pk, pn := boolKeys(column1(t, storage.TypeBool, b(false), null(storage.TypeBool), b(true)))
		checkTable(t, bk, bn, nil, pk, pn, strHash)
	})
	t.Run("empty build", func(t *testing.T) {
		pk, pn := intKeys(column1(t, storage.TypeInt64, ints(0, 1, 2)...))
		checkTable(t, nil, nil, nil, pk, pn, wordHash[int64])
		allNull := column1(t, storage.TypeInt64, null(storage.TypeInt64), null(storage.TypeInt64))
		bk, bn := intKeys(allNull)
		checkTable(t, bk, bn, nil, pk, pn, wordHash[int64])
	})
	t.Run("one key", func(t *testing.T) {
		// Every build row on one key, the Zipf head of a skewed table.
		bk := make([]int64, 5000)
		for i := range bk {
			bk[i] = 42
		}
		checkTable(t, bk, nil, nil, []int64{42, 41, 0}, nil, wordHash[int64])
	})
	t.Run("zipf", func(t *testing.T) {
		tbl, err := datagen.Generate(datagen.TableSpec{Name: "Z", Rows: 20000, Columns: []datagen.ColumnSpec{
			{Name: "k", Dist: datagen.DistZipf, Domain: 2000, Theta: 1}}}, 7)
		if err != nil {
			t.Fatal(err)
		}
		bk, bn := intKeys(tbl)
		checkTable(t, bk, bn, nil, []int64{0, 1, 1999, 2000}, nil, wordHash[int64])
	})
	t.Run("partition row lists", func(t *testing.T) {
		// The row lists partitionJoin hands the kernel: one partition of a
		// routing, and one sub-partition of its re-split.
		vals := make([]storage.Value, 0, 3000)
		for i := 0; i < 3000; i++ {
			if i%97 == 0 {
				vals = append(vals, storage.Null(storage.TypeInt64))
			} else {
				vals = append(vals, i64(int64(i%700)))
			}
		}
		tbl := column1(t, storage.TypeInt64, vals...)
		bk, bn := intKeys(tbl)
		rows := pick(route(tbl, 0, nil, 4, 0, false), nil, 2)
		sub := pick(route(tbl, 0, rows, 3, 1, false), rows, 1)
		for _, rows := range [][]int{rows, sub} {
			if len(rows) == 0 {
				t.Fatal("an empty partition tests nothing")
			}
			checkTable(t, bk, bn, rows, bk, bn, wordHash[int64])
		}
	})
}

// Structured key sets — sequential, negative, multiples of 2^16 and of
// 2^32 — fill the table to its highest load, one half, without clustering:
// every lookup is still the map's, and the average probe stays short.
func TestHashTableStructuredKeysSpread(t *testing.T) {
	const n = 1 << 15
	for _, set := range []struct {
		name string
		key  func(i int64) int64
	}{
		{"sequential", func(i int64) int64 { return i }},
		{"negative", func(i int64) int64 { return -1 - i }},
		{"multiples of 2^16", func(i int64) int64 { return i << 16 }},
		{"multiples of 2^32", func(i int64) int64 { return i << 32 }},
	} {
		t.Run(set.name, func(t *testing.T) {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = set.key(int64(i))
			}
			if avg := checkTable(t, keys, nil, nil, []int64{set.key(n)}, nil, wordHash[int64]); avg > maxAvgProbe {
				t.Fatalf("average probe length %.3f, want at most %.1f", avg, maxAvgProbe)
			}
			bits := make([]uint64, n)
			for i, k := range keys {
				bits[i] = floatBits(float64(k))
			}
			if avg := checkTable(t, bits, nil, nil, nil, nil, wordHash[uint64]); avg > maxAvgProbe {
				t.Fatalf("as float64 bits: average probe length %.3f, want at most %.1f", avg, maxAvgProbe)
			}
		})
	}
}

// hashJoinFixture registers L ⋈ R on k with R the build side: R holds
// buildRows rows over `distinct` keys, and L holds the keys 0..999, each of
// which matches exactly one build row whatever distinct is — so the output
// is the same 1,000 rows and only the build's distinct keys vary.
func hashJoinFixture(t testing.TB, distinct int) (*catalog.Catalog, optimizer.Plan) {
	const buildRows, probeRows = 50000, 1000
	schema := storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64}, storage.ColumnDef{Name: "v", Type: storage.TypeInt64})
	cat := catalog.New()
	for name, n := range map[string]int{"L": probeRows, "R": buildRows} {
		tbl := storage.NewTable(name, schema)
		for i := 0; i < n; i++ {
			k := int64(i)
			if name == "R" && i >= distinct-1 && i >= probeRows {
				k = -1 // the hot key no probe row has
			}
			tbl.MustAppendRow(storage.Int64(k), storage.Int64(int64(i)))
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}},
		[]expr.Predicate{expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k"))}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: hashOnly})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.PlanForOrder([]string{"L", "R"})
	if err != nil {
		t.Fatal(err)
	}
	return cat, plan
}

// execHashJoin runs the fixture's join under the byte budget (0: none) and
// fails unless it returned the fixture's 1,000 rows and partitioned exactly
// when budgeted.
func execHashJoin(t testing.TB, cat *catalog.Catalog, plan optimizer.Plan, budget int64) {
	gov := governor.New(context.Background(), governor.Limits{MaxMemory: budget})
	res, err := NewGoverned(cat, gov).Execute(plan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RowsProduced != 1000 {
		t.Fatalf("%d rows, want 1000", res.Stats.RowsProduced)
	}
	if spills, _ := gov.SpillStats(); (spills > 0) != (budget > 0) {
		t.Fatalf("budget %d: %d partitioning passes", budget, spills)
	}
}

// A hash join's allocations do not grow with its build side's distinct
// keys: 50,000 distinct keys cost what 1,001 do, one partition or many. The
// map it replaced allocated at least one row list per key.
func TestHashJoinAllocationCeiling(t *testing.T) {
	for _, budget := range []int64{0, 1 << 20} {
		var allocs [2]float64
		for i, distinct := range []int{1001, 50000} {
			cat, plan := hashJoinFixture(t, distinct)
			allocs[i] = testing.AllocsPerRun(5, func() { execHashJoin(t, cat, plan, budget) })
		}
		if few, many := allocs[0], allocs[1]; many > few+8 || many > 1000 {
			t.Errorf("budget %d: %v allocations with 50,000 distinct build keys, %v with 1,001; want no growth",
				budget, many, few)
		}
	}
}

// BenchmarkHashJoin times the 50,000-row build, 1,000-row probe join of
// TestHashJoinAllocationCeiling (scans included) as one partition and
// partitioned under a 1 MiB byte budget.
func BenchmarkHashJoin(b *testing.B) {
	cat, plan := hashJoinFixture(b, 50000)
	for _, budget := range []int64{0, 1 << 20} {
		name := "one-partition"
		if budget > 0 {
			name = fmt.Sprintf("partitioned-%dKiB", budget>>10)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				execHashJoin(b, cat, plan, budget)
			}
		})
	}
}
