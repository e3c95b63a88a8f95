// GROUP BY through the hash join's flat table (hashTable). Each group
// column's rows are grouped by the key rendering the hash join binds —
// int64 and string values as stored, float64 bits (floatKeys), bool
// Value.Key() strings (boxedKeys) — with the NULL rows as one more group.
// Several columns combine group by group: each row's pair of group ordinals
// packs into a uint64 key grouped through the same table. A table's runs are
// its groups, each group's rows ascending, so typed accumulators fold every
// group in row order and SUM and AVG come out bit for bit as a row-at-a-time
// fold would give them. No row is boxed: a Value is built only per group,
// for its key columns and its aggregates.
package executor

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/storage"
)

// AggOp is an aggregate operator for Aggregate.
type AggOp int

const (
	// AggCountStar counts rows.
	AggCountStar AggOp = iota
	// AggCount counts non-NULL values of a column.
	AggCount
	// AggSum sums a numeric column (NULLs skipped).
	AggSum
	// AggMin takes the minimum value (NULLs skipped).
	AggMin
	// AggMax takes the maximum value (NULLs skipped).
	AggMax
	// AggAvg averages a numeric column (NULLs skipped).
	AggAvg
)

// String names the operator.
func (op AggOp) String() string {
	switch op {
	case AggCountStar, AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "?"
	}
}

// AggSpec is one aggregate to compute: Op over column ordinal Col of the
// input (ignored for AggCountStar). Name labels the output column.
type AggSpec struct {
	// Op is the aggregate operator.
	Op AggOp
	// Col is the subject column ordinal (unused for AggCountStar).
	Col int
	// Name is the output column name.
	Name string
}

// Aggregate hash-groups the input by the groupCols ordinals and computes
// the aggregates per group under the executor's governor — ungoverned
// grouping was the one row-producing path that escaped budget accounting.
// It follows the SQL semantics: NULL values are skipped by column
// aggregates, NULL group keys form their own group, and with no grouping
// columns a single group is produced even over empty input. Output columns
// are the group columns (in order) followed by the aggregates. Groups are
// emitted in a deterministic order: by their key columns' Value.Key()
// strings, each followed by a zero byte.
func (e *Executor) Aggregate(tbl *storage.Table, groupCols []int, aggs []AggSpec) (*storage.Table, error) {
	if tbl == nil {
		return nil, fmt.Errorf("executor: Aggregate(nil)")
	}
	inSchema := tbl.Schema()
	for _, c := range groupCols {
		if c < 0 || c >= inSchema.NumColumns() {
			return nil, fmt.Errorf("executor: group column ordinal %d out of range", c)
		}
	}
	outCols := make([]storage.ColumnDef, 0, len(groupCols)+len(aggs))
	for _, c := range groupCols {
		outCols = append(outCols, inSchema.Column(c))
	}
	for _, a := range aggs {
		if a.Op != AggCountStar && (a.Col < 0 || a.Col >= inSchema.NumColumns()) {
			return nil, fmt.Errorf("executor: aggregate column ordinal %d out of range", a.Col)
		}
		var typ storage.Type
		switch a.Op {
		case AggCountStar, AggCount:
			typ = storage.TypeInt64
		case AggSum, AggAvg:
			if t := inSchema.Column(a.Col).Type; !numericType(t) {
				return nil, fmt.Errorf("executor: %s of a %s column", a.Op, t)
			}
			typ = storage.TypeFloat64
		case AggMin, AggMax:
			typ = inSchema.Column(a.Col).Type
		default:
			return nil, fmt.Errorf("executor: unknown aggregate op %d", int(a.Op))
		}
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("agg%d", len(outCols))
		}
		outCols = append(outCols, storage.ColumnDef{Name: name, Type: typ})
	}
	outSchema, err := storage.NewSchema(outCols...)
	if err != nil {
		return nil, err
	}

	n := tbl.NumRows()
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("executor: grouping %d rows exceeds the hash table's 2^31-row limit", n)
	}
	for done := 0; done < n; done += colBatch {
		if err := e.gov.TickTuples(int64(min(colBatch, n-done))); err != nil {
			return nil, err
		}
	}
	g := groupRows(tbl, groupCols)
	out := storage.NewTable("aggregate", outSchema)
	row := make([]storage.Value, len(outCols))
	for _, i := range g.sorted(tbl, groupCols) {
		run := g.run(i)
		for j, c := range groupCols {
			row[j] = tbl.Value(run[0], c)
		}
		for j, a := range aggs {
			row[len(groupCols)+j] = aggValue(tbl, a, run)
		}
		if err := e.gov.TickRows(1); err != nil {
			return nil, err
		}
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// groups partitions a table's rows: group i is rows[ends[i-1]:ends[i]]
// (from 0 for i = 0), in ascending row order.
type groups struct {
	rows []int
	ends []int
}

func (g groups) run(i int) []int {
	start := 0
	if i > 0 {
		start = g.ends[i-1]
	}
	return g.rows[start:g.ends[i]]
}

// groupRows groups the rows of tbl by the cols ordinals. With no columns
// every row, none included, is one group.
func groupRows(tbl *storage.Table, cols []int) groups {
	n := tbl.NumRows()
	if len(cols) == 0 {
		all := make([]int, n)
		for r := range all {
			all[r] = r
		}
		return groups{rows: all, ends: []int{n}}
	}
	g := groupColumn(tbl, cols[0])
	for _, c := range cols[1:] {
		// A row's key is its ordinal in g times the column's group count
		// plus its ordinal in the column: under n² < 2^62 for n < 2^31.
		next := groupColumn(tbl, c)
		keys := make([]uint64, n)
		for i := range g.ends {
			for _, r := range g.run(i) {
				keys[r] = uint64(i) * uint64(len(next.ends))
			}
		}
		for i := range next.ends {
			for _, r := range next.run(i) {
				keys[r] += uint64(i)
			}
		}
		g = groupBy(keys, nil)
	}
	return g
}

// groupColumn groups the rows of tbl by column col, rendered the way the
// hash join renders its keys. Over a view the table is the one the hash
// join builds over every row of the column, built once per base column and
// key representation and shared with every later join and grouping of it
// (storage.Table.Memo).
func groupColumn(tbl *storage.Table, col int) groups {
	switch tbl.Schema().Column(col).Type {
	case storage.TypeInt64:
		return groupMemo(tbl, col, repNative, intKeys)
	case storage.TypeFloat64:
		return groupMemo(tbl, col, repFloat, floatKeys)
	case storage.TypeString:
		return groupMemo(tbl, col, repNative, strKeys)
	default:
		return groupMemo(tbl, col, repBoxed, boxedKeys)
	}
}

// groupMemo groups the rows of tbl by column col, whose keys keysOf renders
// under rep, through the column's memoized build table on a view.
func groupMemo[K comparable](tbl *storage.Table, col int, rep keyRep, keysOf func(*storage.Table, int) []K) groups {
	nulls := tbl.ColumnData(col).Nulls
	t := tbl.Memo(col, rep, func() any {
		return newHashTable(keysOf(tbl, col), nulls, nil, hashSeed)
	}).(hashTable[K])
	return tableGroups(t, nulls, tbl.NumRows())
}

// groupBy groups rows by key: a flat table's runs, then the rows nulls
// flags, if any, as one more group.
func groupBy[K comparable](keys []K, nulls []bool) groups {
	return tableGroups(newHashTable(keys, nulls, nil, hashSeed), nulls, len(keys))
}

// tableGroups reads the groups of n rows off a table built over them: its
// runs in key order (dense) or slot order (hashed), then the rows nulls
// flags, if any, as one more group. The table may be shared, so the NULL
// group goes to a copy of its rows.
func tableGroups[K comparable](t hashTable[K], nulls []bool, n int) groups {
	g := groups{rows: t.rows}
	for i := 0; i+1 < len(t.starts); i++ {
		if t.starts[i+1] > t.starts[i] {
			g.ends = append(g.ends, int(t.starts[i+1]))
		}
	}
	for _, s := range t.slots {
		if s.hi != 0 {
			g.ends = append(g.ends, int(s.hi))
		}
	}
	if len(g.rows) < n {
		g.rows = slices.Clip(g.rows)
		for r, null := range nulls[:n] {
			if null {
				g.rows = append(g.rows, r)
			}
		}
		g.ends = append(g.ends, len(g.rows))
	}
	return g
}

// sorted lists the groups in output order: by the Value.Key() strings of
// their key columns, each followed by a zero byte, and on a tie (strings
// holding zero bytes can render two groups alike) by first row.
func (g groups) sorted(tbl *storage.Table, cols []int) []int {
	keys := make([]string, len(g.ends))
	var buf []byte
	for i := range keys {
		buf = buf[:0]
		for _, c := range cols {
			buf = append(append(buf, tbl.Value(g.run(i)[0], c).Key()...), 0)
		}
		keys[i] = string(buf)
	}
	order := make([]int, len(g.ends))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := strings.Compare(keys[a], keys[b]); c != 0 {
			return c
		}
		return g.run(a)[0] - g.run(b)[0]
	})
	return order
}

// aggValue computes aggregate a over one group's rows, ascending.
func aggValue(tbl *storage.Table, a AggSpec, run []int) storage.Value {
	if a.Op == AggCountStar {
		return storage.Int64(int64(len(run)))
	}
	d := tbl.ColumnData(a.Col)
	switch a.Op {
	case AggCount:
		return storage.Int64(int64(len(run) - nullsIn(d.Nulls, run)))
	case AggSum, AggAvg:
		var sum float64
		if d.Type == storage.TypeInt64 {
			sum = sumRun(d.Ints, d.Nulls, run)
		} else {
			sum = sumRun(d.Floats, d.Nulls, run)
		}
		count := len(run) - nullsIn(d.Nulls, run)
		switch {
		case count == 0:
			return storage.Null(storage.TypeFloat64)
		case a.Op == AggAvg:
			return storage.Float64(sum / float64(count))
		}
		return storage.Float64(sum)
	}
	want := -1 // AggMin
	if a.Op == AggMax {
		want = 1
	}
	best := -1
	switch d.Type {
	case storage.TypeInt64:
		best = extremeRow(d.Ints, d.Nulls, run, want)
	case storage.TypeFloat64:
		best = extremeRow(d.Floats, d.Nulls, run, want)
	case storage.TypeString:
		best = extremeRow(d.Strs, d.Nulls, run, want)
	default:
		// Bool: false before true, as storage.Compare orders them.
		for _, r := range run {
			if !d.Null(r) && (best < 0 || d.Bools[r] != d.Bools[best] && d.Bools[r] == (want > 0)) {
				best = r
			}
		}
	}
	if best < 0 {
		return storage.Null(d.Type)
	}
	return d.Value(best)
}

// nullsIn counts the rows of run that nulls flags.
func nullsIn(nulls []bool, run []int) int {
	if nulls == nil {
		return 0
	}
	n := 0
	for _, r := range run {
		if nulls[r] {
			n++
		}
	}
	return n
}

// sumRun adds up the non-NULL values of run as float64, in row order.
func sumRun[T int64 | float64](vals []T, nulls []bool, run []int) float64 {
	sum := 0.0
	for _, r := range run {
		if nulls == nil || !nulls[r] {
			sum += float64(vals[r])
		}
	}
	return sum
}

// extremeRow is the row a fold over run keeps: the first non-NULL row,
// replaced by each later one that compares want (-1: below, 1: above)
// against it by cmpOrd — storage.Compare's order, under which a NaN is
// neither below nor above anything. -1 if every row is NULL.
func extremeRow[T int64 | float64 | string](vals []T, nulls []bool, run []int, want int) int {
	best := -1
	for _, r := range run {
		if (nulls == nil || !nulls[r]) && (best < 0 || cmpOrd(vals[r], vals[best]) == want) {
			best = r
		}
	}
	return best
}
