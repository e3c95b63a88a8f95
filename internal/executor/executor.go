// Package executor runs query evaluation plans against the in-memory
// tables registered in a catalog. Execution is materialized
// operator-at-a-time except for the inner input of a nested-loops join,
// which — as in the classic System R / Starburst formulation the cost model
// assumes — is re-scanned from its base table for every outer row. That
// faithfulness is what lets the Section 8 experiment reproduce: a plan
// chosen under a drastic underestimate pays the re-scans its optimizer
// believed were free. A scan without predicates copies nothing: it hands
// its parent a read-only view of the base columns, charged to the byte
// ledger exactly as the copy it replaces would be.
//
// Every operator evaluates predicates one way, with the typed kernels of
// columnar.go, and every join turns its candidate (left row, right row)
// pairs into output rows at one pair sink. The joins differ only in how
// they find the pairs: the hash join probes a flat open-addressing table
// (hashtable.go), under a partition policy (Limits.MaxMemory, spill.go)
// that splits a build side too big for the budget into Grace partitions of
// row lists, one table each; sort-merge pairs equal-key runs; nested loops
// pair each outer row with the inner's rows that pass its scan filters,
// re-filtered every time; index nested-loops with the rows an index lookup
// returns. DESIGN §13 draws it. A plan runs on the
// goroutine that calls Execute and starts no other: cores are filled by
// concurrent queries, each with its own Executor.
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
// The executor counts the base-table tuples it visits and the predicate
// evaluations it performs, so experiments can report deterministic work
// measures alongside wall-clock times.
package executor

import (
	"fmt"
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

// Execute runs the plan and returns the materialized result, including
// per-node estimated-vs-actual cardinalities.
func (e *Executor) Execute(plan optimizer.Plan) (*Result, error) {
	if plan == nil {
		return nil, fmt.Errorf("executor: nil plan")
	}
	if err := optimizer.Runnable(plan); err != nil {
		return nil, err
	}
	start := time.Now()
	var stats Stats
	rec := &recorder{}
	tbl, err := e.run(plan, &stats, rec, 0)
	if err != nil {
		return nil, err
	}
	stats.RowsProduced = int64(tbl.NumRows())
	stats.Elapsed = time.Since(start)
	return &Result{Table: tbl, Stats: stats, Nodes: rec.nodes}, nil
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

// Count runs the plan and returns only the output row count (COUNT(*)).
func (e *Executor) Count(plan optimizer.Plan) (int64, Stats, error) {
	res, err := e.Execute(plan)
	if err != nil {
		return 0, Stats{}, err
	}
	return res.Stats.RowsProduced, res.Stats, nil
}

func (e *Executor) run(plan optimizer.Plan, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	idx := rec.reserve(plan, depth)
	var tbl *storage.Table
	var err error
	switch n := plan.(type) {
	case *optimizer.Scan:
		tbl, err = e.runScan(n, stats)
	case *optimizer.Join:
		tbl, err = e.runJoin(n, stats, rec, depth)
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
// what a nested-loops or index-nested-loops join re-reads for every outer
// row.
type baseScan struct {
	*optimizer.Scan
	base   *storage.Table
	schema *storage.Schema // the scan's output schema, "alias.column"
}

// openScan opens the scan over base, the scanned table's data.
func openScan(s *optimizer.Scan, base *storage.Table) (*baseScan, error) {
	if base == nil {
		return nil, fmt.Errorf("executor: no data registered for table %q", s.Table)
	}
	schema, err := qualifiedSchema(s.Alias, base.Schema())
	if err != nil {
		return nil, err
	}
	return &baseScan{Scan: s, base: base, schema: schema}, nil
}

// filtered reports whether the scan has any predicate to apply.
func (sc *baseScan) filtered() bool { return len(sc.Conds) > 0 || len(sc.OrConds) > 0 }

// keep compacts sel, rows of the base table, to those passing the scan's
// filters. A single-table filter is the pair filter with both sides the same
// table and the same selection vector.
func (sc *baseScan) keep(sel []int, stats *Stats) []int {
	sel, _ = filterPairs(sc.base, sc.base, sc.base.Schema().NumColumns(), sc.Conds, sel, sel, stats)
	return disjSel(sc.base, sc.OrConds, sel, stats)
}

// takeSel takes a selection vector of capacity n from the arena, charging
// the ledger for the capacity asked for, not what the arena happened to hand
// back: the ledger must not depend on which buffers earlier queries
// recycled. put returns it.
func (e *Executor) takeSel(n int) (sel []int, put func()) {
	sel = selArena.Get(n)
	e.gov.ChargeBytes(int64(8 * n))
	return sel, func() {
		e.gov.ReleaseBytes(int64(8 * n))
		selArena.Put(sel)
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
// through a selection vector and gathers the survivors column-wise. A scan
// without predicates has nothing to select: each batch is charged the same,
// and the scan returns a read-only view of the base columns under its
// qualified schema instead of a copy.
func (e *Executor) runScan(s *optimizer.Scan, stats *Stats) (*storage.Table, error) {
	if err := e.probe(PointScan); err != nil {
		return nil, err
	}
	sc, err := openScan(s, e.cat.Data(s.Table))
	if err != nil {
		return nil, err
	}
	base, n := sc.base, sc.base.NumRows()
	out := storage.NewTable(s.Alias, sc.schema)
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
		sel = sc.keep(appendRange(sel, b, bEnd), stats)
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
		return base.View(s.Alias, sc.schema)
	}
	return out, nil
}

func (e *Executor) runJoin(j *optimizer.Join, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	if err := e.probe(PointJoin); err != nil {
		return nil, err
	}
	left, err := e.run(j.Left, stats, rec, depth+1)
	if err != nil {
		return nil, err
	}
	// The materialized inputs die with the join: they return to the bytes
	// ledger once it has produced its output. Nested loops and index
	// nested-loops read their inner side in place, so right stays nil.
	var out, right *storage.Table
	switch j.Method {
	case optimizer.NestedLoop:
		out, err = e.nestedLoop(j, left, stats, rec, depth)
	case optimizer.IndexNL:
		out, err = e.indexNL(j, left, stats, rec, depth)
	case optimizer.SortMerge, optimizer.HashJoin:
		if right, err = e.run(j.Right, stats, rec, depth+1); err != nil {
			return nil, err
		}
		if j.Method == optimizer.SortMerge {
			out, err = e.sortMerge(j, left, right, stats)
		} else {
			out, err = e.hashJoin(j, left, right, stats)
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

// indexNL probes an ordered index on the inner base table's join column
// once per outer row and hands the pair sink the outer row paired with every
// fetched row that passes the inner's scan filters; the sink applies the
// remaining join predicates. The inner is never materialized.
func (e *Executor) indexNL(j *optimizer.Join, left *storage.Table, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	if j.IndexColumn == "" || j.LeftKey < 0 {
		return nil, fmt.Errorf("executor: index nested-loops plan lacks an index column and key")
	}
	ix := e.cat.Index(j.Right.Table, j.IndexColumn)
	if ix == nil {
		return nil, fmt.Errorf("executor: no index on %s.%s", j.Right.Table, j.IndexColumn)
	}
	inner, err := openScan(j.Right, ix.Table())
	if err != nil {
		return nil, err
	}
	rec.reserve(j.Right, depth+1) // never materialized
	spec, err := newJoinSpec(j, left, inner.base, inner.schema)
	if err != nil {
		return nil, err
	}
	pairs := e.newPairSink(spec, stats, false)
	defer pairs.release()
	for l := 0; l < left.NumRows(); l++ {
		stats.Comparisons++                         // the index search
		rows := ix.Lookup(left.Value(l, spec.lKey)) // a fresh slice: ours to compact
		if err := e.visit(stats, len(rows)); err != nil {
			return nil, err
		}
		if err := pairs.add(l, inner.keep(rows, stats)); err != nil {
			return nil, err
		}
	}
	if err := pairs.flush(); err != nil {
		return nil, err
	}
	return pairs.out, nil
}

// joinSchema concatenates the two input schemas.
func joinSchema(l, r *storage.Schema) (*storage.Schema, error) {
	cols := make([]storage.ColumnDef, 0, l.NumColumns()+r.NumColumns())
	cols = append(cols, l.Columns()...)
	cols = append(cols, r.Columns()...)
	return storage.NewSchema(cols...)
}

// nestedLoop pairs every outer row with the inner base table, visited in
// full and re-filtered by the scan's kernels for each outer row — the
// honest cost the optimizer's NestedLoopCost models — and lets the pair
// sink apply the join predicates.
func (e *Executor) nestedLoop(j *optimizer.Join, left *storage.Table, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	inner, err := openScan(j.Right, e.cat.Data(j.Right.Table))
	if err != nil {
		return nil, err
	}
	// The re-scanned inner is never materialized: record it with an unknown
	// actual cardinality.
	rec.reserve(j.Right, depth+1)
	spec, err := newJoinSpec(j, left, inner.base, inner.schema)
	if err != nil {
		return nil, err
	}
	pairs := e.newPairSink(spec, stats, false)
	defer pairs.release()
	n := inner.base.NumRows()
	sel, put := e.takeSel(min(n, colBatch))
	defer put()
	for l := 0; l < left.NumRows(); l++ {
		for b := 0; b < n; b += colBatch {
			bEnd := min(b+colBatch, n)
			if err := e.visit(stats, bEnd-b); err != nil {
				return nil, err
			}
			sel = inner.keep(appendRange(sel[:0], b, bEnd), stats)
			if err := pairs.add(l, sel); err != nil {
				return nil, err
			}
		}
	}
	if err := pairs.flush(); err != nil {
		return nil, err
	}
	return pairs.out, nil
}

// joinSpec is what every step of one join shares — every partition of a
// hash join, the sort and the merge of a sort-merge join, every outer row of
// a nested-loops join: the two inputs, the key ordinals of an equi-join and
// the residual conjunction the pair sink applies.
type joinSpec struct {
	left, right *storage.Table
	lKey, rKey  int
	residual    []optimizer.Cond
	outSchema   *storage.Schema
}

// newJoinSpec pairs left with right, whose columns rightSchema labels (a
// base table's by the scan's alias), under the join's key and residual.
func newJoinSpec(j *optimizer.Join, left, right *storage.Table, rightSchema *storage.Schema) (*joinSpec, error) {
	out, err := joinSchema(left.Schema(), rightSchema)
	if err != nil {
		return nil, err
	}
	return &joinSpec{left: left, right: right, lKey: j.LeftKey, rKey: j.RightKey, residual: j.Residual, outSchema: out}, nil
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
	// scratch is the bytes of key arrays join derived from the inputs; they
	// live as long as the join does.
	scratch int64
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
func (e *Executor) sortMerge(j *optimizer.Join, left, right *storage.Table, stats *Stats) (*storage.Table, error) {
	spec, err := newJoinSpec(j, left, right, right.Schema())
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
func (e *Executor) hashJoin(j *optimizer.Join, left, right *storage.Table, stats *Stats) (*storage.Table, error) {
	shared, err := newJoinSpec(j, left, right, right.Schema())
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
	e.bindHashKeys(spec)
	e.gov.ChargeBytes(spec.scratch)
	defer e.gov.ReleaseBytes(spec.scratch)
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
