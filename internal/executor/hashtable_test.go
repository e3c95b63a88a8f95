package executor

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

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

// checkTable builds the flat table over the keys keysOf derives from the
// one-column table build under both seeds, as newHashTable builds it, forced
// hashed, and over every row as the index into the column's runs
// (runIndex) wherever that does not decline, and requires every lookup the
// join kernel would make — each non-NULL probe key, and each distinct build
// key — to return the model's row list, in order, and the same list from
// every table. An index must be dense exactly where newHashTable is. It
// reports whether newHashTable built a dense table, whose offset array must
// then be exactly span-sized — the least key's run and the greatest's
// non-empty, the clamp run past them empty — and no more bytes than the
// hashed one, and the larger of the two seeds' hashed average probe
// lengths.
func checkTable[K comparable](t *testing.T, build *storage.Table, keysOf func(*storage.Table, int, []int) []K, rows []int, probe []K, pnulls []bool) (dense bool, worst float64) {
	t.Helper()
	bk, bn := keysAndNulls(build, keysOf)
	want := mapBuild(bk, bn, rows)
	var keys []K
	for i, k := range probe {
		if pnulls == nil || !pnulls[i] {
			keys = append(keys, k)
		}
	}
	seen := map[K]bool{}
	for i := 0; i < rowCount(rows, len(bk)); i++ {
		if k := bk[rowAt(rows, i)]; !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	var outputs [][]int
	for _, seed := range modelSeeds {
		hashed := hashTable[K]{seed: seed, slots: make([]hashSlot[K], hashedSlots(rowCount(rows, len(bk))))}
		hashed.build(bk, bn, rows)
		table := newHashTable(bk, bn, rows, seed)
		if dense = table.starts != nil; dense {
			span := int(table.span())
			first, last := table.starts[1]-table.starts[0], table.starts[span]-table.starts[span-1]
			if first == 0 || last == 0 || table.starts[span] != table.starts[span+1] || table.arrayBytes() > hashed.arrayBytes() {
				t.Fatalf("dense table over %d keys: first and last runs %d and %d rows, %d bytes; the hashed one has %d",
					span, first, last, table.arrayBytes(), hashed.arrayBytes())
			}
		}
		tables := []hashTable[K]{table, hashed}
		if index, ok := runIndex(build, 0, keysOf, seed); ok && rows == nil {
			if (index.starts != nil) != dense {
				t.Fatalf("seed %#x: the run index is dense %v, newHashTable %v", seed, index.starts != nil, dense)
			}
			tables = append(tables, index)
		}
		for _, tbl := range tables {
			var out []int
			for _, k := range keys {
				got := tbl.lookup(k)
				if !slices.Equal(got, want[k]) {
					t.Fatalf("seed %#x, dense %v: key %v → rows %v, the map gives %v", seed, tbl.starts != nil, k, got, want[k])
				}
				out = append(append(out, got...), -1)
			}
			outputs = append(outputs, out)
		}
		worst = max(worst, avgProbe(hashed))
	}
	for _, out := range outputs[1:] {
		if !slices.Equal(out, outputs[0]) {
			t.Fatal("the tables returned different row lists")
		}
	}
	return dense, worst
}

// int64Column is a one-column int64 table of keys.
func int64Column(t *testing.T, keys []int64) *storage.Table {
	t.Helper()
	vals := make([]storage.Value, len(keys))
	for i, k := range keys {
		vals[i] = storage.Int64(k)
	}
	return column1(t, storage.TypeInt64, vals...)
}

// lookup returns the build rows whose key is k, in ascending row order; none
// if no build row has it. It is one probe of the join kernel, hashed alone.
func (t *hashTable[K]) lookup(k K) []int {
	var h [1]uint64
	t.hashKeys([]K{k}, nil, 0, h[:])
	lo, hi := t.run(k, h[0])
	return t.rows[lo:hi]
}

// arrayBytes is the size of the table's offset or slot array and its row
// array.
func (t hashTable[K]) arrayBytes() int64 {
	return int64(len(t.slots))*int64(unsafe.Sizeof(hashSlot[K]{})) + 4*int64(len(t.starts)) + 8*int64(len(t.rows))
}

// avgProbe is the mean number of slots a lookup of a present key inspects
// in a hashed table: one more than the key's distance from its home slot
// under the table's seed.
func avgProbe[K comparable](table hashTable[K]) float64 {
	mask := uint64(len(table.slots) - 1)
	total, keys := 0, 0
	var h [1]uint64
	for i, s := range table.slots {
		if s.hi != 0 {
			table.hashKeys([]K{s.key}, nil, 0, h[:])
			total += int((uint64(i)-h[0])&mask) + 1
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

// keysAndNulls derives a one-column table's keys the way bindHashKeys does
// for one key kind (keysOf), with the column's NULL flags.
func keysAndNulls[K comparable](tbl *storage.Table, keysOf func(*storage.Table, int, []int) []K) ([]K, []bool) {
	return keysOf(tbl, 0, nil), tbl.ColumnData(0).Nulls
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
		pk, pn := keysAndNulls(probe, intKeys)
		checkTable(t, build, intKeys, nil, pk, pn)
	})
	t.Run("float bits", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		build := column1(t, storage.TypeFloat64, f64(negZero), f64(0), f64(math.NaN()), f64(nan2), f64(negNaN),
			null(storage.TypeFloat64), f64(1.5), f64(math.NaN()), f64(math.Inf(-1)), f64(negZero))
		probe := column1(t, storage.TypeFloat64, f64(0), f64(negZero), f64(math.NaN()), f64(nan2), f64(negNaN),
			null(storage.TypeFloat64), f64(1.5), f64(2.5))
		pk, pn := keysAndNulls(probe, floatKeys)
		checkTable(t, build, floatKeys, nil, pk, pn)
		bk, bn := keysAndNulls(build, floatKeys)
		table := newHashTable(bk, bn, nil, 0)
		if got := table.lookup(bk[1]); len(got) != 3 {
			t.Fatalf("0.0 found rows %v, want 3: -0.0 and 0.0 are one key", got)
		}
		// Without the NaNs, as a loaded column holds them, -0.0 and 0.0 are
		// one run and one key.
		signed := column1(t, storage.TypeFloat64, f64(negZero), f64(0), null(storage.TypeFloat64), f64(1.5),
			f64(negZero), f64(-2.5), f64(0))
		checkTable(t, signed, floatKeys, nil, pk, pn)
		if index, ok := runIndex(signed, 0, floatKeys, 0); !ok || len(index.lookup(0)) != 4 {
			t.Errorf("run index over -0.0 and 0.0: built %v, want one run of 4 rows", ok)
		}
	})
	t.Run("negative float bits", func(t *testing.T) {
		// The least negative floats, whose bit patterns span a few values,
		// so the keys build dense; their bits descend as the values ascend.
		var vals, probes []storage.Value
		for i := uint64(1); i <= 40; i++ {
			vals = append(vals, f64(math.Float64frombits(1<<63|i%13+1)))
			probes = append(probes, f64(math.Float64frombits(1<<63|i%17)))
		}
		build := column1(t, storage.TypeFloat64, vals...)
		pk, pn := keysAndNulls(column1(t, storage.TypeFloat64, probes...), floatKeys)
		if dense, _ := checkTable(t, build, floatKeys, nil, pk, pn); !dense {
			t.Error("negative floats a few bit patterns apart built hashed")
		}
		if _, ok := runIndex(build, 0, floatKeys, 0); ok {
			t.Error("dense offsets that descend with the runs built a run index")
		}
	})
	t.Run("int64 vs float64", func(t *testing.T) {
		// An int64 column met by a float64 one: both sides as float64 bits.
		build := column1(t, storage.TypeInt64, i64(2), i64(0), null(storage.TypeInt64), i64(2), i64(-7))
		probe := column1(t, storage.TypeFloat64, f64(2), f64(math.Copysign(0, -1)), f64(2.5), f64(-7))
		pk, pn := keysAndNulls(probe, floatKeys)
		checkTable(t, build, floatKeys, nil, pk, pn)
		// Past 2^53 two int64 runs read as one float64 key, so the runs
		// cannot index it: over a dense bit span and a hashed one.
		const big = 1 << 53
		probe = column1(t, storage.TypeFloat64, f64(big), f64(big+2), f64(1))
		pk, pn = keysAndNulls(probe, floatKeys)
		for _, keys := range [][]int64{{big + 1, big, big + 2, big + 1}, {big + 1, 1, big, big + 2, big}} {
			build := int64Column(t, keys)
			checkTable(t, build, floatKeys, nil, pk, pn)
			if _, ok := runIndex(build, 0, floatKeys, 0); ok {
				t.Errorf("%v read as float64: two runs on one key built a run index", keys)
			}
		}
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
		pk, pn := keysAndNulls(column1(t, storage.TypeString, pv...), strKeys)
		checkTable(t, column1(t, storage.TypeString, bv...), strKeys, nil, pk, pn)
	})
	t.Run("bool", func(t *testing.T) {
		b := storage.Bool
		pk, pn := keysAndNulls(column1(t, storage.TypeBool, b(false), null(storage.TypeBool), b(true)), boolKeys)
		checkTable(t, column1(t, storage.TypeBool, b(true), b(false), null(storage.TypeBool), b(true)), boolKeys, nil, pk, pn)
	})
	t.Run("empty build", func(t *testing.T) {
		pk, pn := keysAndNulls(column1(t, storage.TypeInt64, ints(0, 1, 2)...), intKeys)
		checkTable(t, column1(t, storage.TypeInt64), intKeys, nil, pk, pn)
		allNull := column1(t, storage.TypeInt64, null(storage.TypeInt64), null(storage.TypeInt64))
		checkTable(t, allNull, intKeys, nil, pk, pn)
	})
	t.Run("one key", func(t *testing.T) {
		// Every build row on one key, the Zipf head of a skewed table.
		bk := make([]int64, 5000)
		for i := range bk {
			bk[i] = 42
		}
		checkTable(t, int64Column(t, bk), intKeys, nil, []int64{42, 41, 0}, nil)
	})
	t.Run("zipf", func(t *testing.T) {
		tbl, err := datagen.Generate(datagen.TableSpec{Name: "Z", Rows: 20000, Columns: []datagen.ColumnSpec{
			{Name: "k", Dist: datagen.DistZipf, Domain: 2000, Theta: 1}}}, 7)
		if err != nil {
			t.Fatal(err)
		}
		checkTable(t, tbl, intKeys, nil, []int64{0, 1, 1999, 2000}, nil)
	})
	t.Run("dense addressing", func(t *testing.T) {
		// 100 build rows over 60 keys, the least lo and the greatest
		// lo+span−1: a hashed table would have 256 slots, so a span of 256
		// is dense and one of 257 is not, wherever it lies.
		for _, c := range []struct {
			name      string
			lo, span  int64
			wantDense bool
		}{
			{"span 256", 0, 256, true},
			{"span 257", 0, 257, false},
			{"negative span 256", -1000, 256, true},
			{"negative span 257", -1000, 257, false},
			{"at MinInt64", math.MinInt64, 256, true},
			{"at MaxInt64", math.MaxInt64 - 255, 256, true},
			{"at MaxInt64, span 257", math.MaxInt64 - 256, 257, false},
		} {
			build := make([]int64, 100)
			for i := range build {
				build[i] = c.lo + int64(i%60)*(c.span-1)/59
			}
			hi := c.lo + c.span - 1
			// Probes below lo and above hi, wrapping at the int64 ends, and
			// gaps inside the span.
			probe := []int64{c.lo - 1, c.lo - 1000, hi + 1, hi + 1000, c.lo + 1, hi - 1, 0, -1,
				math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
			if dense, _ := checkTable(t, int64Column(t, build), intKeys, nil, probe, nil); dense != c.wantDense {
				t.Errorf("%s: dense %v, want %v", c.name, dense, c.wantDense)
			}
		}
		// Both ends of int64 span 2^64 values: hashed, and no overflow.
		ends := []int64{math.MinInt64, math.MaxInt64, 0, math.MinInt64}
		if dense, _ := checkTable(t, int64Column(t, ends), intKeys, nil, []int64{-1, 1, math.MaxInt64 - 1}, nil); dense {
			t.Error("MinInt64..MaxInt64 built dense")
		}
		// uint64 keys (float bits, packed group ordinals) at the top of
		// their range: NaN payloads, as float64 bits.
		var top []storage.Value
		for _, bits := range []uint64{math.MaxUint64 - 2, math.MaxUint64, math.MaxUint64, math.MaxUint64 - 2} {
			top = append(top, f64(math.Float64frombits(bits)))
		}
		if dense, _ := checkTable(t, column1(t, storage.TypeFloat64, top...), floatKeys, nil,
			[]uint64{0, 1, math.MaxUint64 - 1, math.MaxUint64 - 3}, nil); !dense {
			t.Error("uint64 keys at MaxUint64 built hashed")
		}
		// NULLs store 0, outside the non-NULL keys 1000..1099: the span is
		// the non-NULL keys', and a probe of 0 finds nothing, over every row
		// and over a row list.
		var vals []storage.Value
		for i := 0; i < 300; i++ {
			if i%3 == 1 {
				vals = append(vals, null(storage.TypeInt64))
			} else {
				vals = append(vals, i64(int64(1000+i%100)))
			}
		}
		probe := []int64{0, 999, 1000, 1001, 1004, 1010, 1050, 1099, 1100}
		for _, rows := range [][]int{nil, {1, 2, 3, 5, 6, 8, 9, 10}} {
			if dense, _ := checkTable(t, column1(t, storage.TypeInt64, vals...), intKeys, rows, probe, nil); !dense {
				t.Errorf("rows %v: NULL-bearing build over dense keys built hashed", rows)
			}
		}
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
		bk, bn := keysAndNulls(tbl, intKeys)
		rows := pick(route(tbl, 0, nil, 4, 0, false), nil, 2)
		sub := pick(route(tbl, 0, rows, 3, 1, false), rows, 1)
		for _, rows := range [][]int{rows, sub} {
			if len(rows) == 0 {
				t.Fatal("an empty partition tests nothing")
			}
			checkTable(t, tbl, intKeys, rows, bk, bn)
		}
	})
}

// Structured key sets — sequential, negative, multiples of 2^16 and of
// 2^32 — fill a hashed table to its highest load, one half, without
// clustering: every lookup is still the map's, and the average probe stays
// short. Sequential and negative keys build dense; the check still runs
// the mixer over them through a table forced hashed.
func TestHashTableStructuredKeysSpread(t *testing.T) {
	const n = 1 << 15
	for _, set := range []struct {
		name  string
		key   func(i int64) int64
		dense bool
	}{
		{"sequential", func(i int64) int64 { return i }, true},
		{"negative", func(i int64) int64 { return -1 - i }, true},
		{"multiples of 2^16", func(i int64) int64 { return i << 16 }, false},
		{"multiples of 2^32", func(i int64) int64 { return i << 32 }, false},
	} {
		t.Run(set.name, func(t *testing.T) {
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = set.key(int64(i))
			}
			column := int64Column(t, keys)
			dense, avg := checkTable(t, column, intKeys, nil, []int64{set.key(n)}, nil)
			if dense != set.dense {
				t.Errorf("dense %v, want %v", dense, set.dense)
			}
			if avg > maxAvgProbe {
				t.Fatalf("average probe length %.3f, want at most %.1f", avg, maxAvgProbe)
			}
			dense, avg = checkTable(t, column, floatKeys, nil, nil, nil)
			if dense {
				t.Error("as float64 bits: built dense")
			}
			if avg > maxAvgProbe {
				t.Fatalf("as float64 bits: average probe length %.3f, want at most %.1f", avg, maxAvgProbe)
			}
		})
	}
}

// The dense rule is decided by the build's own keys, the same way every
// time. Section 8's join columns (permutations of 0..n−1) and a 500-key
// Zipf column build dense, an offset array from the least key to the
// greatest whose first and last runs hold rows and whose bytes never
// exceed the hashed table's; keys 2^16 apart, strings and floats hash.
func TestHashTableDenseRule(t *testing.T) {
	const n = 20000
	column := func(dist datagen.Distribution, domain int) []int64 {
		tbl, err := datagen.Generate(datagen.TableSpec{Name: "T", Rows: n, Columns: []datagen.ColumnSpec{
			{Name: "k", Dist: dist, Domain: domain, Theta: 1}}}, 42)
		if err != nil {
			t.Fatal(err)
		}
		return tbl.ColumnData(0).Ints
	}
	for _, c := range []struct {
		name   string
		keys   []int64
		domain int
	}{
		{"permutation", column(datagen.DistPermutation, n), n},
		{"zipf over 500", column(datagen.DistZipf, 500), 500},
	} {
		dense, _ := checkTable(t, int64Column(t, c.keys), intKeys, nil, nil, nil)
		table := newHashTable(c.keys, nil, nil, hashSeed)
		span := slices.Max(c.keys) - slices.Min(c.keys) + 1
		if !dense || int64(table.span()) != span || span > int64(c.domain) {
			t.Errorf("%s: dense %v, %d offsets over a span of %d keys", c.name, dense, len(table.starts), span)
		}
	}
	sparse := make([]int64, n)
	strs := make([]string, n)
	floats := make([]uint64, n)
	for i := range sparse {
		sparse[i], strs[i], floats[i] = int64(i)<<16, fmt.Sprint(i), floatBits(float64(i))
	}
	if newHashTable(sparse, nil, nil, hashSeed).starts != nil {
		t.Error("keys 2^16 apart built dense")
	}
	if newHashTable(strs, nil, nil, hashSeed).starts != nil {
		t.Error("string keys built dense")
	}
	if newHashTable(floats, nil, nil, hashSeed).starts != nil {
		t.Error("float keys built dense")
	}
}

// probeKind is one key kind the hash join binds: the column type both
// inputs share, the key at position i of either input, and the pairs one
// lookup per probe row finds, under the kind's key rendering.
type probeKind struct {
	name  string
	typ   storage.Type
	key   func(i int) storage.Value
	model func(left, right *storage.Table, lrows, rrows []int) [][2]int
}

// lookupPairs is the model of one partition's probe: for each non-NULL probe
// row named by lrows (nil: every left row), in order, one lookup of its key
// in a table built over the right rows named by rrows.
func lookupPairs[K comparable](keysOf func(*storage.Table, int, []int) []K) func(left, right *storage.Table, lrows, rrows []int) [][2]int {
	return func(left, right *storage.Table, lrows, rrows []int) [][2]int {
		lk, ln := keysAndNulls(left, keysOf)
		rk, rn := keysAndNulls(right, keysOf)
		table := newHashTable(rk, rn, rrows, hashSeed)
		var pairs [][2]int
		for i := 0; i < rowCount(lrows, len(lk)); i++ {
			if l := rowAt(lrows, i); ln == nil || !ln[l] {
				for _, r := range table.lookup(lk[l]) {
					pairs = append(pairs, [2]int{l, r})
				}
			}
		}
		return pairs
	}
}

// keyColumns is a two-column table of n rows: a key column of kind's keys,
// NULL where null says, and each row's own index.
func keyColumns(t *testing.T, kind probeKind, prefix string, n int, key func(i int) int, null func(i int) bool) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(prefix, storage.MustSchema(storage.ColumnDef{Name: prefix + "k", Type: kind.typ},
		storage.ColumnDef{Name: prefix + "id", Type: storage.TypeInt64}))
	for i := 0; i < n; i++ {
		k := kind.key(key(i))
		if null(i) {
			k = storage.Null(kind.typ)
		}
		tbl.MustAppendRow(k, storage.Int64(int64(i)))
	}
	return tbl
}

// The probe hashes a block of keys at a time. Whatever the probe length
// against the block (0, 1, 255, 256, 257) and the pair sink's batch
// (colBatch+1), with NULL probe keys on the block edges or off them, the
// hash join's pairs — and, given probe-row lists as the partition policy
// passes them, the origin of each — are one lookup per probe row, for every
// key kind.
func TestHashJoinProbeBlockBoundaries(t *testing.T) {
	kinds := []probeKind{
		{"int64", storage.TypeInt64, func(i int) storage.Value { return storage.Int64(int64(i%37) - 3) }, lookupPairs(intKeys)},
		{"float bits", storage.TypeFloat64, func(i int) storage.Value {
			switch f := float64(i%37) / 4; {
			case f == 0 && i%2 == 1:
				return storage.Float64(math.Copysign(0, -1))
			case i%37 == 36:
				return storage.Float64(math.NaN())
			default:
				return storage.Float64(f)
			}
		}, lookupPairs(floatKeys)},
		{"string", storage.TypeString, func(i int) storage.Value { return storage.String64(fmt.Sprint("key-", i%37)) }, lookupPairs(strKeys)},
		{"boxed bool", storage.TypeBool, func(i int) storage.Value { return storage.Bool(i%37%3 == 0) }, lookupPairs(boolKeys)},
	}
	for _, kind := range kinds {
		for _, n := range []int{0, 1, hashBlock - 1, hashBlock, hashBlock + 1, colBatch + 1} {
			for _, shape := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
				lists, edges := shape[0], shape[1]
				t.Run(fmt.Sprintf("%s/%d/lists=%v/null-edges=%v", kind.name, n, lists, edges), func(t *testing.T) {
					// The build holds half the probe domain, a row in seven NULL.
					right := keyColumns(t, kind, "r", 300, func(j int) int { return 2 * (j % 19) },
						func(j int) bool { return j%7 == 3 })
					// Probe position p is left row p, or row 2p+1 behind a list.
					// Its key is NULL on either edge of a block and at the end,
					// or else at every fifth position off the edges.
					null := func(p int) bool {
						onEdge := p%hashBlock == 0 || p%hashBlock == hashBlock-1 || p == n-1
						if edges {
							return onEdge
						}
						return !onEdge && p%5 == 2
					}
					var left *storage.Table
					var lrows, rrows []int
					if lists {
						left = keyColumns(t, kind, "l", 2*n, func(i int) int { return i / 2 },
							func(i int) bool { return i%2 == 1 && null(i/2) })
						lrows = make([]int, n)
						for p := range lrows {
							lrows[p] = 2*p + 1
						}
						for j := 0; j < right.NumRows(); j++ {
							if j%3 != 0 {
								rrows = append(rrows, j)
							}
						}
					} else {
						left = keyColumns(t, kind, "l", n, func(i int) int { return i }, null)
					}
					schema, err := joinSchema(left.Schema(), right.Schema())
					if err != nil {
						t.Fatal(err)
					}
					spec := &hashSpec{joinSpec: &joinSpec{left: left, right: right, outSchema: schema}}
					(&Executor{}).bindHashKeys(spec, rrows != nil)
					sink, err := spec.join(rrows, lrows, &Stats{})
					if err != nil {
						t.Fatal(err)
					}
					want := kind.model(left, right, lrows, rrows)
					if sink.out.NumRows() != len(want) {
						t.Fatalf("%d pairs, one lookup per probe row finds %d", sink.out.NumRows(), len(want))
					}
					for i, w := range want {
						l, r := int(sink.out.Value(i, 1).Int()), int(sink.out.Value(i, 3).Int())
						if l != w[0] || r != w[1] {
							t.Fatalf("pair %d is (%d, %d), the lookups give (%d, %d)", i, l, r, w[0], w[1])
						}
						if lists && sink.origin[i] != l {
							t.Fatalf("pair %d comes from left row %d, its origin says %d", i, l, sink.origin[i])
						}
					}
					if n > 2 && len(want) == 0 {
						t.Fatal("no probe row matched: the check tests nothing")
					}
				})
			}
		}
	}
}

// hashJoinFixture registers L ⋈ R on k with R the build side: R holds
// buildRows rows over `distinct` keys, and L holds the keys 0..999, each of
// which matches exactly one build row whatever distinct is — so the output
// is the same 1,000 rows and only the build's distinct keys vary. Every key
// but R's hot key −1 is multiplied by stride: 1 builds a dense table, 2^16
// a hashed one.
func hashJoinFixture(t testing.TB, distinct int, stride int64) (*catalog.Catalog, optimizer.Plan) {
	const buildRows, probeRows = 50000, 1000
	schema := storage.MustSchema(storage.ColumnDef{Name: "k", Type: storage.TypeInt64}, storage.ColumnDef{Name: "v", Type: storage.TypeInt64})
	cat := catalog.New()
	for name, n := range map[string]int{"L": probeRows, "R": buildRows} {
		tbl := storage.NewTable(name, schema)
		for i := 0; i < n; i++ {
			k := int64(i) * stride
			if name == "R" && i >= distinct-1 && i >= probeRows {
				k = -1 // the hot key no probe row has
			}
			tbl.MustAppendRow(storage.Int64(k), storage.Int64(int64(i)))
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return cat, planHashOrder(t, cat, "L", "R")
}

// planHashOrder plans the fixture's join as a hash join in the given order,
// the first table the probe side.
func planHashOrder(t testing.TB, cat *catalog.Catalog, order ...string) optimizer.Plan {
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}},
		[]expr.Predicate{expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k"))}, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: hashOnly})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.PlanForOrder(order)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// execHashJoin runs the fixture's join under the byte budget (0: none),
// carrying the output columns cols (nil: every column; none: a COUNT(*)),
// and fails unless it returned the fixture's 1,000 rows and partitioned
// exactly when budgeted.
func execHashJoin(t testing.TB, cat *catalog.Catalog, plan optimizer.Plan, budget int64, cols []int) {
	gov := governor.New(context.Background(), governor.Limits{MaxMemory: budget})
	res, err := NewGoverned(cat, gov).ExecuteColumns(plan, cols)
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
// keys: 50,000 distinct keys cost what 1,001 do, one partition or many,
// dense or hashed. The map it replaced allocated at least one row list per
// key.
func TestHashJoinAllocationCeiling(t *testing.T) {
	for _, stride := range []int64{1, 1 << 16} {
		for _, budget := range []int64{0, 1 << 20} {
			var allocs [2]float64
			for i, distinct := range []int{1001, 50000} {
				cat, plan := hashJoinFixture(t, distinct, stride)
				allocs[i] = testing.AllocsPerRun(5, func() { execHashJoin(t, cat, plan, budget, nil) })
			}
			if few, many := allocs[0], allocs[1]; many > few+8 || many > 1000 {
				t.Errorf("stride %d, budget %d: %v allocations with 50,000 distinct build keys, %v with 1,001; want no growth",
					stride, budget, many, few)
			}
		}
	}
}

// BenchmarkHashJoin times the 50,000-row build, 1,000-row probe join of
// TestHashJoinAllocationCeiling (scans included) as one partition and
// partitioned under a 1 MiB byte budget, over dense keys and over sparse
// ones 2^16 apart, which hash; with every output column, and under count/
// as a COUNT(*), which counts its matches without pairing them. A COUNT(*)
// build carries only its key, half the bytes, so it partitions under half
// the budget. count/swapped/ plans the join the other way round: the
// 50,000-row table probes a build over the 1,000 rows.
func BenchmarkHashJoin(b *testing.B) {
	for _, keys := range []struct {
		name   string
		stride int64
	}{{"dense", 1}, {"sparse", 1 << 16}} {
		cat, plan := hashJoinFixture(b, 50000, keys.stride)
		for _, count := range []bool{false, true} {
			for _, budget := range []int64{0, 1 << 20} {
				var cols []int
				if count {
					budget, cols = budget/2, []int{}
				}
				name := keys.name + "/one-partition"
				if budget > 0 {
					name = fmt.Sprintf("%s/partitioned-%dKiB", keys.name, budget>>10)
				}
				if count {
					name = "count/" + name
				}
				b.Run(name, func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						execHashJoin(b, cat, plan, budget, cols)
					}
				})
			}
		}
		swapped := planHashOrder(b, cat, "R", "L")
		b.Run("count/swapped/"+keys.name+"/one-partition", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				execHashJoin(b, cat, swapped, 0, []int{})
			}
		})
	}
}

// BenchmarkAggregate times a GROUP BY of 10,000 rows into 500 groups with
// COUNT(*), SUM, MIN and AVG (TestAggregateAllocationCeiling's input): the
// grouping half of the flat table's work, as BenchmarkHashJoin is the join
// half.
func BenchmarkAggregate(b *testing.B) {
	tbl, aggs := groupFixture(10000, 500)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (&Executor{}).Aggregate(tbl, []int{0}, aggs); err != nil {
			b.Fatal(err)
		}
	}
}
