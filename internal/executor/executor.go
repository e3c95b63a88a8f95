// Package executor runs query evaluation plans against the in-memory
// tables registered in a catalog. Execution is materialized
// operator-at-a-time except for the inner input of a nested-loops join,
// which — as in the classic System R / Starburst formulation the cost model
// assumes — is re-scanned from its base table for every outer row. That
// faithfulness is what lets the Section 8 experiment reproduce: a plan
// chosen under a drastic underestimate pays the re-scans its optimizer
// believed were free. A scan without predicates copies nothing: it hands
// its parent a read-only view of the base columns, charged to the byte
// ledger exactly as the copy of its live columns would be.
//
// Every operator evaluates predicates one way, with the typed kernels of
// columnar.go, and every join turns its candidate (left row, right row)
// pairs into output rows at one pair sink. The joins differ only in how
// they find the pairs: the hash join probes a flat table, an offset array
// or open addressing (hashtable.go), under a partition policy
// (Limits.MaxMemory, spill.go) that splits a build side too big for the
// budget into Grace partitions of row lists, one table each; sort-merge
// pairs equal-key runs; nested loops pair each outer row with the inner's
// rows that pass its scan filters, the scan's bitmap expanded and its other
// filters re-run every time. DESIGN §13 draws it.
// A plan runs on the goroutine that calls Execute and starts no other:
// cores are filled by concurrent queries, each with its own Executor.
//
// What a join or GROUP BY derives from every row of an unfiltered
// base-table input is built once per base column and shared, read-only, by
// every query, snapshot and goroutine (storage.Table.Memo): the column's
// runs of equal keys (storage.Table.ColumnOrder), which sort-merge and
// GROUP BY read, and per key representation the hash index into them.
// Filtered scans, operator outputs and Grace partitions build their own.
// The optimizer prices such a hash build at nothing when the table fits
// the byte budget, and a hash join builds on the input the plan names. The
// ledger is charged as if each structure were built, so a warm run's
// partition decisions, ErrMemory outcomes and peak are the cold run's.
//
// A plan arrives with every column it reads resolved: each scan's filters
// as ordinals of its base table, each join's key as an ordinal of either
// input and its residual as ordinals of the joined row — left input first,
// then the inner table (optimizer.Cond). The executor resolves no names. It
// still labels output columns "alias.column", for callers that read results
// by name. A plan runs only against the catalog snapshot it was planned on,
// whose data its ordinals index; a plan reading data that snapshot lacked
// is refused before any operator runs (optimizer.Runnable).
//
// A node carries only the output columns something above it reads: its
// live columns. ExecuteColumns takes the output ordinals its caller reads
// and works the live columns out top-down: a join's inputs keep what its
// output keeps, plus its key on each side and its residual's columns. Every
// node's output keeps its full-width schema, so every ordinal in the plan
// stays valid; a dead column is empty, costs nothing on the byte ledger,
// and reading one panics (storage.NewLiveTable). Scans and the pair sink
// gather only live columns, an unfiltered scan's view exposes only its
// live base columns, and a COUNT(*) root (Count) carries none: its pair
// sink only counts the pairs that survive, and with no residual to apply
// forms none; nested loops bind their residual to each outer row and count
// the inner rows that pass it. Execute is the all-live case.
// What is carried changes no row, order, work counter or tuple/row charge,
// only the byte ledger.
//
// The executor counts the base-table tuples it visits and the predicate
// evaluations it performs, so experiments can report deterministic work
// measures alongside wall-clock times.
package executor

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// Fault-injection probe points of the executor.
const (
	// PointScan fires when a base-table scan starts.
	PointScan = "executor.scan"
	// PointJoin fires when a join operator starts.
	PointJoin = "executor.join"
)

// Stats accumulates execution work counters.
type Stats struct {
	// TuplesScanned counts base-table and materialized-input tuples visited.
	TuplesScanned int64
	// Comparisons counts predicate evaluations and merge/sort key
	// comparisons.
	Comparisons int64
	// RowsProduced is the root operator's output cardinality.
	RowsProduced int64
	// Elapsed is the wall-clock execution time.
	Elapsed time.Duration
}

// NodeActual compares one plan node's estimated output cardinality with
// what execution actually produced — the data behind EXPLAIN ANALYZE
// output and the estimate-accuracy experiments.
type NodeActual struct {
	// Node is the node's one-line description.
	Node string
	// Depth is the node's depth in the plan tree (root = 0).
	Depth int
	// EstRows is the optimizer's estimate.
	EstRows float64
	// ActualRows is the materialized output size. Nodes that are never
	// materialized (the re-scanned inner of a nested-loops join) report -1.
	ActualRows int64
}

// Result is the outcome of executing a plan.
type Result struct {
	// Table holds the materialized output rows.
	Table *storage.Table
	// Stats are the work counters of the whole execution.
	Stats Stats
	// Nodes holds per-node estimated-vs-actual cardinalities in depth-first
	// (root-first) order.
	Nodes []NodeActual
}

// Executor runs plans against the data tables of one catalog.
type Executor struct {
	cat *catalog.Catalog
	gov *governor.Governor
}

// New creates an executor over the catalog's registered data tables.
func New(cat *catalog.Catalog) *Executor {
	return &Executor{cat: cat}
}

// NewGoverned is New with a resource governor: operator inner loops charge
// the tuple budget per tuple visited and the row budget per row
// materialized, and poll cancellation periodically. gov may be nil.
func NewGoverned(cat *catalog.Catalog, gov *governor.Governor) *Executor {
	return &Executor{cat: cat, gov: gov}
}

// visit charges n visited tuples to both the work counters and the
// governor's tuple budget.
func (e *Executor) visit(stats *Stats, n int) error {
	stats.TuplesScanned += int64(n)
	return e.gov.TickTuples(int64(n))
}

// probe consults a fault-injection point with the governor's context so
// injected latency is slept out interruptibly: a canceled query aborts a
// latency fault immediately (mapped through the error taxonomy) instead
// of delaying drain.
func (e *Executor) probe(point string) error {
	if err := faultinject.CheckCtx(e.gov.Context(), point); err != nil {
		if gerr := e.gov.Err(); gerr != nil {
			return gerr
		}
		return err
	}
	return nil
}

// Execute runs the plan and returns the materialized result with every
// column live, including per-node estimated-vs-actual cardinalities. It is
// ExecuteColumns with nil: the all-live case.
func (e *Executor) Execute(plan optimizer.Plan) (*Result, error) {
	return e.ExecuteColumns(plan, nil)
}

// ExecuteColumns is Execute for a caller that reads only the output columns
// whose ordinals cols lists (nil: every column): each node carries only
// what producing those takes. The result keeps the plan's full-width
// schema; the columns cols does not list are dead, empty, and reading one
// panics. Rows, row order, the work counters and the governor's tuple and
// row charges do not depend on cols; the byte ledger charges only what is
// carried.
func (e *Executor) ExecuteColumns(plan optimizer.Plan, cols []int) (*Result, error) {
	if plan == nil {
		return nil, fmt.Errorf("executor: nil plan")
	}
	if err := optimizer.Runnable(plan); err != nil {
		return nil, err
	}
	var live []bool
	if cols != nil {
		n, err := e.width(plan)
		if err != nil {
			return nil, err
		}
		live = make([]bool, n)
		for _, c := range cols {
			if c < 0 || c >= n {
				return nil, fmt.Errorf("executor: output column %d of a %d-column plan", c, n)
			}
			live[c] = true
		}
	}
	start := time.Now()
	var stats Stats
	rec := &recorder{}
	tbl, err := e.run(plan, live, &stats, rec, 0)
	if err != nil {
		return nil, err
	}
	stats.RowsProduced = int64(tbl.NumRows())
	stats.Elapsed = time.Since(start)
	return &Result{Table: tbl, Stats: stats, Nodes: rec.nodes}, nil
}

// width is the number of columns of the plan's output row: every column of
// each table it scans.
func (e *Executor) width(p optimizer.Plan) (int, error) {
	n := 0
	for p != nil {
		var s *optimizer.Scan
		switch x := p.(type) {
		case *optimizer.Scan:
			s, p = x, nil
		case *optimizer.Join:
			s, p = x.Right, x.Left
		default:
			return 0, fmt.Errorf("executor: unknown plan node %T", p)
		}
		data := e.cat.Data(s.Table)
		if data == nil {
			return 0, fmt.Errorf("executor: no data registered for table %q", s.Table)
		}
		n += data.Schema().NumColumns()
	}
	return n, nil
}

// recorder accumulates NodeActual entries in pre-order.
type recorder struct {
	nodes []NodeActual
}

// reserve appends a pending entry for the node and returns its index.
func (r *recorder) reserve(p optimizer.Plan, depth int) int {
	r.nodes = append(r.nodes, NodeActual{
		Node: p.String(), Depth: depth, EstRows: p.EstRows(), ActualRows: -1,
	})
	return len(r.nodes) - 1
}

// fill sets the actual output size of a reserved entry.
func (r *recorder) fill(idx int, actual int64) {
	r.nodes[idx].ActualRows = actual
}

// Count runs the plan and returns only the output row count (COUNT(*)). It
// carries no output column: the root only counts its rows.
func (e *Executor) Count(plan optimizer.Plan) (int64, Stats, error) {
	res, err := e.ExecuteColumns(plan, []int{})
	if err != nil {
		return 0, Stats{}, err
	}
	return res.Stats.RowsProduced, res.Stats, nil
}

// run executes one plan node, carrying the output columns live flags (nil:
// every column).
func (e *Executor) run(plan optimizer.Plan, live []bool, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	idx := rec.reserve(plan, depth)
	var tbl *storage.Table
	var err error
	switch n := plan.(type) {
	case *optimizer.Scan:
		tbl, err = e.runScan(n, live, stats)
	case *optimizer.Join:
		tbl, err = e.runJoin(n, live, stats, rec, depth)
	default:
		return nil, fmt.Errorf("executor: unknown plan node %T", plan)
	}
	if err != nil {
		return nil, err
	}
	// Charge the materialized operator output to the bytes ledger. The
	// charge happens once per node at its boundary, which is what keeps
	// downstream spill decisions deterministic. Inputs consumed by a join
	// are released in runJoin; output size itself is bounded by MaxRows, not
	// MaxMemory.
	if e.gov != nil {
		e.gov.ChargeBytes(tbl.ApproxBytes())
	}
	rec.fill(idx, int64(tbl.NumRows()))
	return tbl, nil
}

// releaseTables returns consumed input materializations to the bytes
// ledger once the operator that read them has produced its output.
func (e *Executor) releaseTables(tbls ...*storage.Table) {
	if e.gov == nil {
		return
	}
	for _, t := range tbls {
		if t != nil {
			e.gov.ReleaseBytes(t.ApproxBytes())
		}
	}
}

// qualifiedSchema builds the output schema of a scan: every column labelled
// "alias.column", so the columns of a join result keep distinct names.
func qualifiedSchema(alias string, in *storage.Schema) (*storage.Schema, error) {
	cols := make([]storage.ColumnDef, in.NumColumns())
	for i := 0; i < in.NumColumns(); i++ {
		c := in.Column(i)
		cols[i] = storage.ColumnDef{Name: alias + "." + c.Name, Type: c.Type}
	}
	return storage.NewSchema(cols...)
}

// baseScan is a scan over its base table's data: what a scan reads, and
// what a nested-loops join re-reads for every outer row.
type baseScan struct {
	*optimizer.Scan
	base   *storage.Table
	schema *storage.Schema // the scan's output schema, "alias.column"
	rows   *[]uint64       // pooled bitmap; its bits XOR flip mark the rows markRange kept (nil: not answered)
	flip   uint64
	kept   int // how many rows markRange kept
}

// rowPool and selPool recycle scan bitmaps and selection vectors (pair
// batches too) across queries; holding slice pointers, their Put allocates
// nothing.
var (
	rowPool = sync.Pool{New: func() any { return new([]uint64) }}
	selPool = sync.Pool{New: func() any { return new([]int) }}
)

// getSel takes an empty pooled vector of capacity at least n.
func getSel(n int) *[]int {
	s := selPool.Get().(*[]int)
	if cap(*s) < n {
		*s = make([]int, 0, n)
	}
	*s = (*s)[:0]
	return s
}

// openScan opens the scan over base, the scanned table's data. closeScan
// returns what it took.
func (e *Executor) openScan(s *optimizer.Scan, base *storage.Table) (*baseScan, error) {
	if base == nil {
		return nil, fmt.Errorf("executor: no data registered for table %q", s.Table)
	}
	schema, err := qualifiedSchema(s.Alias, base.Schema())
	if err != nil {
		return nil, err
	}
	sc := &baseScan{Scan: s, base: base, schema: schema}
	if len(s.Conds) > 0 {
		e.markRange(sc)
	}
	return sc, nil
}

// markRange answers the scan's first conjunct, if it compares an int64,
// float64 or string column with a non-NULL constant of its type, off the
// column's memoized Order: there the NULLs and the rows below, equal to and
// above the constant are four runs, the first its NULL count long and the
// others bounded by binary search. It marks the rows kept, or past half the
// rows the rest, in a bitmap charged as a selection vector is.
func (e *Executor) markRange(sc *baseScan) {
	p, d := sc.Conds[0], sc.base.ColumnData(sc.Conds[0].Left)
	if p.Right >= 0 || p.Const.IsNull() || p.Const.Type() != d.Type || d.Type == storage.TypeBool {
		return
	}
	o := sc.base.ColumnOrder(p.Left)
	perm, n, nn := o.Perm, len(o.Perm), o.Nulls
	lo := nn + sort.Search(n-nn, func(i int) bool { return storage.Compare(d.Value(perm[nn+i]), p.Const) >= 0 })
	hi := lo + sort.Search(n-lo, func(i int) bool { return storage.Compare(d.Value(perm[lo+i]), p.Const) > 0 })
	runs := [5]int{0, nn, lo, hi, n}
	keeps := func(i int) bool { return i > 0 && p.Op.Holds(i-2) } // run i passes p
	sc.kept = b2i(keeps(1))*(lo-nn) + b2i(keeps(2))*(hi-lo) + b2i(keeps(3))*(n-hi)
	sc.flip = -uint64(b2i(2*sc.kept > n))
	sc.rows = rowPool.Get().(*[]uint64)
	*sc.rows = append((*sc.rows)[:0], make([]uint64, (n+63)/64)...)
	e.gov.ChargeBytes(int64(8 * len(*sc.rows)))
	for i := range 4 {
		if keeps(i) == (sc.flip == 0) {
			for _, r := range perm[runs[i]:runs[i+1]] {
				(*sc.rows)[r>>6] |= 1 << (r & 63)
			}
		}
	}
}

// closeScan returns the scan's bitmap, if it took one, to pool and ledger.
func (e *Executor) closeScan(sc *baseScan) {
	if sc.rows != nil {
		e.gov.ReleaseBytes(int64(8 * len(*sc.rows)))
		rowPool.Put(sc.rows)
	}
}

// filtered reports whether the scan has any predicate to apply.
func (sc *baseScan) filtered() bool { return len(sc.Conds) > 0 || len(sc.OrConds) > 0 }

// batch returns the rows b..e of the base table that pass the scan's
// filters, ascending, in sel's storage, whose capacity must be at least
// e−b. A first conjunct markRange answered expands the bitmap's words,
// counting a comparison per row as a kernel would; any other starts from
// the identity selection vector. The rest apply as filter applies them.
func (sc *baseScan) batch(sel []int, b, e int, stats *Stats) []int {
	if sc.rows == nil {
		return sc.filter(sc.Conds, appendRange(sel[:0], b, e), stats)
	}
	stats.Comparisons += int64(e - b)
	sel = sel[:0]
	for w := b >> 6; w<<6 < e; w++ {
		word := ((*sc.rows)[w] ^ sc.flip) & (^uint64(0) << max(b-w<<6, 0)) & (^uint64(0) >> (64 - min(e-w<<6, 64)))
		for ; word != 0; word &= word - 1 {
			sel = append(sel, w<<6+bits.TrailingZeros64(word))
		}
	}
	return sc.filter(sc.Conds[1:], sel, stats)
}

// filter compacts sel, rows of the base table, to those passing the
// conjuncts conds, then the scan's OR-groups. A single-table filter is the
// pair filter with both sides the same table and the same selection vector.
func (sc *baseScan) filter(conds []optimizer.Cond, sel []int, stats *Stats) []int {
	sel, _ = filterPairs(sc.base, sc.base, sc.base.Schema().NumColumns(), conds, sel, sel, stats)
	return disjSel(sc.base, sc.OrConds, sel, stats)
}

// takeSel takes a selection vector of capacity n from the pool, charging
// the ledger for the capacity asked for, not what the pool happened to hand
// back: the ledger must not depend on which buffers earlier queries
// recycled. put returns it.
func (e *Executor) takeSel(n int) (sel []int, put func()) {
	s := getSel(n)
	e.gov.ChargeBytes(int64(8 * n))
	return *s, func() {
		e.gov.ReleaseBytes(int64(8 * n))
		selPool.Put(s)
	}
}

// appendRange appends the row indices [start, end) to sel.
func appendRange(sel []int, start, end int) []int {
	for r := start; r < end; r++ {
		sel = append(sel, r)
	}
	return sel
}

// runScan visits the base table in batches of colBatch rows, filters each
// (baseScan.batch) and gathers the survivors' live columns, into room
// reserved for the rows markRange kept, else for the plan's estimate of at
// most every row. A scan without
// predicates has nothing to select: each batch is charged the same,
// and the scan returns a read-only view of the live base columns under its
// qualified schema instead of a copy.
func (e *Executor) runScan(s *optimizer.Scan, live []bool, stats *Stats) (*storage.Table, error) {
	if err := e.probe(PointScan); err != nil {
		return nil, err
	}
	sc, err := e.openScan(s, e.cat.Data(s.Table))
	if err != nil {
		return nil, err
	}
	defer e.closeScan(sc)
	base, n := sc.base, sc.base.NumRows()
	out := storage.NewLiveTable(s.Alias, sc.schema, live)
	if sc.rows != nil {
		out.Reserve(sc.kept)
	} else if sc.filtered() && s.Rows > 0 {
		out.Reserve(int(math.Ceil(min(s.Rows, float64(n)))))
	}
	for b := 0; b < n; b += colBatch {
		bEnd := min(b+colBatch, n)
		if err := e.visit(stats, bEnd-b); err != nil {
			return nil, err
		}
		if !sc.filtered() {
			if err := e.gov.TickRows(int64(bEnd - b)); err != nil {
				return nil, err
			}
			continue
		}
		sel, put := e.takeSel(bEnd - b)
		sel = sc.batch(sel, b, bEnd, stats)
		err := e.gov.TickRows(int64(len(sel)))
		if err == nil {
			err = out.AppendGather(base, sel)
		}
		put()
		if err != nil {
			return nil, err
		}
	}
	if !sc.filtered() {
		return base.View(s.Alias, sc.schema, live)
	}
	return out, nil
}

// runJoin runs a join whose output carries the columns live flags (nil:
// every column).
func (e *Executor) runJoin(j *optimizer.Join, live []bool, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	if err := e.probe(PointJoin); err != nil {
		return nil, err
	}
	var leftLive, rightLive []bool // every column, as live is
	if live != nil {
		// ExecuteColumns has checked that every table scanned has data.
		leftLive, rightLive = inputsLive(j, live, e.cat.Data(j.Right.Table).Schema().NumColumns())
	}
	left, err := e.run(j.Left, leftLive, stats, rec, depth+1)
	if err != nil {
		return nil, err
	}
	// The materialized inputs die with the join: they return to the bytes
	// ledger once it has produced its output. Nested loops read their inner
	// side in place, so right stays nil.
	var out, right *storage.Table
	switch j.Method {
	case optimizer.NestedLoop:
		out, err = e.nestedLoop(j, left, live, stats, rec, depth)
	case optimizer.SortMerge, optimizer.HashJoin:
		if right, err = e.run(j.Right, rightLive, stats, rec, depth+1); err != nil {
			return nil, err
		}
		if j.Method == optimizer.SortMerge {
			out, err = e.sortMerge(j, left, right, live, stats)
		} else {
			out, err = e.hashJoin(j, left, right, live, stats)
		}
	default:
		return nil, fmt.Errorf("executor: unknown join method %v", j.Method)
	}
	if err != nil {
		return nil, err
	}
	e.releaseTables(left, right)
	return out, nil
}

// inputsLive splits the live flags of a join's output row between its left
// input and its inner table, rw columns wide, and adds what the join itself
// reads: the key on each side and the residual's columns.
func inputsLive(j *optimizer.Join, live []bool, rw int) (left, right []bool) {
	both := slices.Clone(live)
	lw := len(both) - rw
	mark := func(c int) {
		if c >= 0 {
			both[c] = true
		}
	}
	mark(j.LeftKey)
	if j.RightKey >= 0 {
		mark(lw + j.RightKey)
	}
	for _, c := range j.Residual {
		mark(c.Left)
		mark(c.Right)
	}
	return both[:lw:lw], both[lw:]
}

// joinSchema concatenates the two input schemas.
func joinSchema(l, r *storage.Schema) (*storage.Schema, error) {
	cols := make([]storage.ColumnDef, 0, l.NumColumns()+r.NumColumns())
	cols = append(cols, l.Columns()...)
	cols = append(cols, r.Columns()...)
	return storage.NewSchema(cols...)
}

// nestedLoop pairs every outer row with the inner base table, visited in
// full for each outer row — the honest cost the optimizer's NestedLoopCost
// models — its scan's bitmap, built once, expanded and its other filters
// re-run by the scan's kernels (baseScan.batch), and lets the pair
// sink apply the join predicates. A join whose output carries no column
// forms no pairs when every residual conjunct reads the inner: bound to
// each outer row's values (bindOuter), the residual filters the inner's
// batch and the sink counts what passes.
func (e *Executor) nestedLoop(j *optimizer.Join, left *storage.Table, live []bool, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	inner, err := e.openScan(j.Right, e.cat.Data(j.Right.Table))
	if err != nil {
		return nil, err
	}
	defer e.closeScan(inner)
	// The re-scanned inner is never materialized: record it with an unknown
	// actual cardinality.
	rec.reserve(j.Right, depth+1)
	spec, err := newJoinSpec(j, left, inner.base, inner.schema, live)
	if err != nil {
		return nil, err
	}
	lcols, residual := left.Schema().NumColumns(), spec.residual
	bind := len(residual) > 0 && spec.dead() && !slices.ContainsFunc(residual, func(c optimizer.Cond) bool {
		return c.Left < lcols && c.Right < lcols
	})
	if bind {
		spec.residual = nil // the sink counts what the bound residual keeps
	}
	pairs := e.newPairSink(spec, stats, false)
	defer pairs.release()
	n := inner.base.NumRows()
	sel, put := e.takeSel(min(n, colBatch))
	defer put()
	var bound []optimizer.Cond
	for l := 0; l < left.NumRows(); l++ {
		if bind {
			bound = bindOuter(bound[:0], residual, left, l, lcols)
		}
		for b := 0; b < n; b += colBatch {
			bEnd := min(b+colBatch, n)
			if err := e.visit(stats, bEnd-b); err != nil {
				return nil, err
			}
			if sel = inner.batch(sel, b, bEnd, stats); bind {
				err = pairs.countWhere(inner.base, bound, sel)
			} else {
				err = pairs.add(l, sel)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if err := pairs.flush(); err != nil {
		return nil, err
	}
	return pairs.out, nil
}

// bindOuter appends to dst the residual, over the joined row of lcols outer
// columns then the inner's, rewritten as filters on the inner table alone
// for outer row l of left: an outer operand becomes the value it holds in
// row l, a constant, with the comparison turned round (Flip) if it was the
// left operand. Every conjunct reads the inner.
func bindOuter(dst, residual []optimizer.Cond, left *storage.Table, l, lcols int) []optimizer.Cond {
	for _, c := range residual {
		switch {
		case c.Left < lcols:
			c = optimizer.Cond{Left: c.Right - lcols, Op: c.Op.Flip(), Right: -1, Const: left.Value(l, c.Left)}
		case c.Right >= 0 && c.Right < lcols:
			c = optimizer.Cond{Left: c.Left - lcols, Op: c.Op, Right: -1, Const: left.Value(l, c.Right)}
		default:
			c.Left -= lcols
			if c.Right >= 0 {
				c.Right -= lcols
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// joinSpec is what every step of one join shares — every partition of a
// hash join, the sort and the merge of a sort-merge join, every outer row of
// a nested-loops join: the two inputs, the key ordinals of an equi-join, the
// residual conjunction the pair sink applies, and the output's schema and
// live columns (nil: every column).
type joinSpec struct {
	left, right *storage.Table
	lKey, rKey  int
	residual    []optimizer.Cond
	outSchema   *storage.Schema
	live        []bool
}

// dead reports whether the join's output carries no column.
func (s *joinSpec) dead() bool { return s.live != nil && !slices.Contains(s.live, true) }

// counts reports whether the join's output carries no column and has no
// residual to apply: its pair sink then only counts pairs.
func (s *joinSpec) counts() bool { return s.dead() && len(s.residual) == 0 }

// newJoinSpec pairs left with right, whose columns rightSchema labels (a
// base table's by the scan's alias), under the join's key and residual,
// into an output carrying the columns live flags. A key pair Compare does
// not order (storage.Comparable) fails here, for every keyed join method.
func newJoinSpec(j *optimizer.Join, left, right *storage.Table, rightSchema *storage.Schema, live []bool) (*joinSpec, error) {
	if j.LeftKey >= 0 {
		lt, rt := left.Schema().Column(j.LeftKey).Type, rightSchema.Column(j.RightKey).Type
		if !storage.Comparable(lt, rt) {
			return nil, fmt.Errorf("executor: join keys of types %s and %s do not compare", lt, rt)
		}
	}
	out, err := joinSchema(left.Schema(), rightSchema)
	if err != nil {
		return nil, err
	}
	return &joinSpec{left: left, right: right, lKey: j.LeftKey, rKey: j.RightKey, residual: j.Residual, outSchema: out, live: live}, nil
}

// hashSpec is a hash join's spec plus the kernel its partition policy calls.
type hashSpec struct {
	*joinSpec
	// join runs build → probe → pair-gather for one partition: the right
	// rows named by rrows against the left rows named by lrows, in order. A
	// nil list means every row of that input; with a probe-row list, the
	// sink's origin reports the left row behind each output row. The caller
	// has already visited the rows.
	join func(rrows, lrows []int, stats *Stats) (*pairSink, error)
	// rep is how the keys are rendered (bindHashKeys).
	rep keyRep
	// numeric marks an int64 key joined to a float64 one: both sides hash as
	// float64, the type storage.Compare meets them in.
	numeric bool
}

// rowAt resolves position i of a row list; a nil list names every row.
func rowAt(rows []int, i int) int {
	if rows == nil {
		return i
	}
	return rows[i]
}

// rowCount is the length of a row list over a table of n rows.
func rowCount(rows []int, n int) int {
	if rows == nil {
		return n
	}
	return len(rows)
}

// sortScratchPerRow is what a sort-merge join is charged per input row for
// the life of the join: the typed sort kernel's peak (the permutation, its
// radix double, the derived keys — storage.Table.SortPermutation). Nothing
// mergeJoin holds exceeds it: while one input sorts the other holds at most
// its permutation, and the merge holds the two permutations plus, for bool
// keys and an int64 key met by a float64 one only, an 8-byte key per row.
const sortScratchPerRow = 24

// sortMerge joins two materialized inputs on the first equality predicate
// as key sort → merge → pair-gather (mergeJoin), applying the remaining
// predicates as residual filters at the pair sink.
func (e *Executor) sortMerge(j *optimizer.Join, left, right *storage.Table, live []bool, stats *Stats) (*storage.Table, error) {
	spec, err := newJoinSpec(j, left, right, right.Schema(), live)
	if err != nil {
		return nil, err
	}
	// The sort scratch cannot be partitioned the way a hash build can, so a
	// budget that cannot cover it fails the query with a typed ErrMemory
	// rather than overrunning.
	n := left.NumRows() + right.NumRows()
	scratch := sortScratchPerRow * int64(n)
	if err := e.gov.GrabBytes(scratch, "sort-merge scratch"); err != nil {
		return nil, err
	}
	defer e.gov.ReleaseBytes(scratch)
	stats.Comparisons += sortComparisons(left.NumRows()) + sortComparisons(right.NumRows())
	out, err := e.mergeJoin(spec, stats)
	if err != nil {
		return nil, err
	}
	// Scanning both inputs counts as work even where keys never matched.
	if err := e.visit(stats, n); err != nil {
		return nil, err
	}
	return out, nil
}

// hashJoin joins on the first equality predicate as one pipeline:
// partition → build → probe → pair-gather. The partition policy decides
// which build rows and which probe rows meet — everything at once, or
// Grace partitions of row lists under a byte budget (partitionJoin); the
// typed kernel behind spec.join (colJoin) joins one partition.
func (e *Executor) hashJoin(j *optimizer.Join, left, right *storage.Table, live []bool, stats *Stats) (*storage.Table, error) {
	shared, err := newJoinSpec(j, left, right, right.Schema(), live)
	if err != nil {
		return nil, err
	}
	spec := &hashSpec{joinSpec: shared}
	// The hash table pins about as much again as the right input for the
	// duration of the join. That deterministic footprint (the input bytes)
	// both feeds the partition decision — taken here, at the operator
	// boundary, before any key scratch is on the ledger — and, when the join
	// runs as one partition, is charged as working memory.
	need := right.ApproxBytes()
	partition := e.gov.ShouldSpill(need)
	e.bindHashKeys(spec, partition)
	// The key arrays the join derives live as long as it does: the probe
	// side's, and the build side's unless its build is the base column's
	// shared one, which is table memory.
	scratch := keyBytes(spec.rep, left)
	if partition || !right.IsView() {
		scratch += keyBytes(spec.rep, right)
	}
	e.gov.ChargeBytes(scratch)
	defer e.gov.ReleaseBytes(scratch)
	// Whatever the partition policy, both inputs are visited once.
	if err := e.visit(stats, right.NumRows()+left.NumRows()); err != nil {
		return nil, err
	}
	if partition {
		return e.partitionJoin(spec, need, stats)
	}
	e.gov.ChargeBytes(need)
	defer e.gov.ReleaseBytes(need)
	sink, err := spec.join(nil, nil, stats)
	if err != nil {
		return nil, err
	}
	return sink.out, nil
}

// sortComparisons approximates n·log₂(n) for the comparison counter.
func sortComparisons(n int) int64 {
	if n < 2 {
		return 0
	}
	c := int64(0)
	for k := n; k > 1; k >>= 1 {
		c++
	}
	return int64(n) * c
}
