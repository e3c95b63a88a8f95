// Package executor runs query evaluation plans against the in-memory
// tables registered in a catalog. Execution is materialized
// operator-at-a-time except for the inner input of a nested-loops join,
// which — as in the classic System R / Starburst formulation the cost model
// assumes — is re-scanned from its base table for every outer row. That
// faithfulness is what lets the Section 8 experiment reproduce: a plan
// chosen under a drastic underestimate pays the re-scans its optimizer
// believed were free.
//
// The hash join is one pipeline, partition → build → probe → pair-gather,
// and two independent policies pick its shape (DESIGN §13 draws it). The
// partition policy (Limits.MaxMemory) keeps the whole join as one partition
// or, when the build side's hash table does not fit, routes build and probe
// rows to row lists per partition, Grace style but in memory, and merges
// partition outputs back by origin. The engine (Limits.DisableColumnar) is
// colJoin — typed map, selection-vector residuals, column gather — or
// rowJoin, the boxed oracle the tests compare against. Every combination
// yields the same rows in the same order with the same work counters and
// governor tuple/row charges; the differential tests hold each policy
// against its degenerate case.
//
// The sort-merge join is key sort → merge → pair-gather and meets the hash
// join at the pair sink: the typed kernel (mergeJoin) sorts each input with
// storage's typed permutation kernel, merges with typed compares, and hands
// every equal-key run product to the pairSink the hash-join probe feeds —
// residual selection vectors, row-budget charge, column gather. Its oracle
// behind Limits.DisableColumnar is rowMerge.
//
// Scans share the engine choice; nested loops and index-nested-loops
// evaluate boxed rows in both engines. A plan runs on the goroutine that
// calls Execute and starts no other: cores are filled by concurrent queries,
// each with its own Executor.
//
// The executor counts the base-table tuples it visits and the predicate
// evaluations it performs, so experiments can report deterministic work
// measures alongside wall-clock times.
package executor

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/expr"
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

// Add merges other into s.
func (s *Stats) Add(other Stats) {
	s.TuplesScanned += other.TuplesScanned
	s.Comparisons += other.Comparisons
	s.RowsProduced += other.RowsProduced
	s.Elapsed += other.Elapsed
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

// visit charges one visited tuple to both the work counters and the
// governor's tuple budget.
func (e *Executor) visit(stats *Stats) error {
	stats.TuplesScanned++
	return e.gov.TickTuples(1)
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

// emit appends a row to an operator output, charging the materialized-row
// budget.
func (e *Executor) emit(out *storage.Table, row []storage.Value) error {
	if err := e.gov.TickRows(1); err != nil {
		return err
	}
	return out.AppendRow(row...)
}

// Execute runs the plan and returns the materialized result, including
// per-node estimated-vs-actual cardinalities.
func (e *Executor) Execute(plan optimizer.Plan) (*Result, error) {
	if plan == nil {
		return nil, fmt.Errorf("executor: nil plan")
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
	// charge happens once per node at its boundary — identical totals
	// whichever engine produced the rows — which is what keeps downstream
	// spill decisions deterministic. Inputs consumed by a join are released
	// in runJoin; output size itself is bounded by MaxRows, not MaxMemory.
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

// qualifiedSchema builds the output schema of a scan: every column renamed
// to "alias.column" so join results never collide and predicates resolve by
// their qualified names.
func qualifiedSchema(alias string, in *storage.Schema) (*storage.Schema, error) {
	cols := make([]storage.ColumnDef, in.NumColumns())
	for i := 0; i < in.NumColumns(); i++ {
		c := in.Column(i)
		cols[i] = storage.ColumnDef{Name: alias + "." + c.Name, Type: c.Type}
	}
	return storage.NewSchema(cols...)
}

func (e *Executor) runScan(s *optimizer.Scan, stats *Stats) (*storage.Table, error) {
	if err := e.probe(PointScan); err != nil {
		return nil, err
	}
	base := e.cat.Data(s.Table)
	if base == nil {
		return nil, fmt.Errorf("executor: no data registered for table %q", s.Table)
	}
	schema, err := qualifiedSchema(s.Alias, base.Schema())
	if err != nil {
		return nil, err
	}
	filter, err := compileAll(s.Filter, schema)
	if err != nil {
		return nil, err
	}
	orFilter, err := compileDisjunctions(s.FilterOr, schema)
	if err != nil {
		return nil, err
	}
	scanRange := e.scanRangeRows
	if e.useColumnar() {
		scanRange = e.scanRangeColumnar
	}
	out := storage.NewTable(s.Alias, schema)
	if err := scanRange(base, 0, base.NumRows(), filter, orFilter, out, stats); err != nil {
		return nil, err
	}
	return out, nil
}

// scanRangeRows is the row oracle's scan body: it filters base rows
// [start, end) into out one boxed row at a time. scanRangeColumnar produces
// identical rows, counters, and governor charges.
func (e *Executor) scanRangeRows(base *storage.Table, start, end int, filter compiled,
	orFilter []compiledDisj, out *storage.Table, stats *Stats) error {
	buf := make([]storage.Value, 0, out.Schema().NumColumns())
	for r := start; r < end; r++ {
		if err := e.visit(stats); err != nil {
			return err
		}
		buf = base.AppendRowTo(buf[:0], r)
		ok, err := filter.eval(buf, stats)
		if err != nil {
			return err
		}
		if !ok || !evalDisjunctions(orFilter, buf, stats) {
			continue
		}
		if err := e.emit(out, buf); err != nil {
			return err
		}
	}
	return nil
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
// once per outer row. The inner is never materialized; the scan filter and
// residual join predicates qualify each fetched row.
func (e *Executor) indexNL(j *optimizer.Join, left *storage.Table, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	scan, ok := j.Right.(*optimizer.Scan)
	if !ok {
		return nil, fmt.Errorf("executor: index nested-loops requires a base-table inner")
	}
	if j.IndexColumn == "" {
		return nil, fmt.Errorf("executor: index nested-loops plan lacks an index column")
	}
	ix := e.cat.Index(scan.Table, j.IndexColumn)
	if ix == nil {
		return nil, fmt.Errorf("executor: no index on %s.%s", scan.Table, j.IndexColumn)
	}
	base := ix.Table()
	innerSchema, err := qualifiedSchema(scan.Alias, base.Schema())
	if err != nil {
		return nil, err
	}
	rec.reserve(scan, depth+1) // never materialized
	innerFilter, err := compileAll(scan.Filter, innerSchema)
	if err != nil {
		return nil, err
	}
	innerOrFilter, err := compileDisjunctions(scan.FilterOr, innerSchema)
	if err != nil {
		return nil, err
	}
	outSchema, err := joinSchema(left.Schema(), innerSchema)
	if err != nil {
		return nil, err
	}
	// The probe key: the predicate over IndexColumn; the rest are residual.
	var keyPred *expr.Predicate
	var residuals []expr.Predicate
	for i, p := range j.Preds {
		if keyPred == nil && p.Op == expr.OpEQ && p.RightIsColumn &&
			((columnMatches(p.Left, scan.Alias, j.IndexColumn)) ||
				(columnMatches(p.Right, scan.Alias, j.IndexColumn))) {
			keyPred = &j.Preds[i]
			continue
		}
		residuals = append(residuals, p)
	}
	if keyPred == nil {
		return nil, fmt.Errorf("executor: no equality predicate over index column %s.%s", scan.Alias, j.IndexColumn)
	}
	// Outer side of the key predicate.
	outerRef := keyPred.Left
	if columnMatches(keyPred.Left, scan.Alias, j.IndexColumn) {
		outerRef = keyPred.Right
	}
	outerKey := left.Schema().ColumnIndex(outerRef.Table + "." + outerRef.Column)
	if outerKey < 0 {
		return nil, fmt.Errorf("executor: probe column %s missing from outer input", outerRef)
	}
	residual, err := compileAll(residuals, outSchema)
	if err != nil {
		return nil, err
	}

	out := storage.NewTable("join", outSchema)
	row := make([]storage.Value, 0, outSchema.NumColumns())
	inner := make([]storage.Value, 0, innerSchema.NumColumns())
	for lr := 0; lr < left.NumRows(); lr++ {
		probe := left.Value(lr, outerKey)
		stats.Comparisons++ // the index search
		for _, rr := range ix.Lookup(probe) {
			if err := e.visit(stats); err != nil {
				return nil, err
			}
			inner = base.AppendRowTo(inner[:0], rr)
			ok, err := innerFilter.eval(inner, stats)
			if err != nil {
				return nil, err
			}
			if !ok || !evalDisjunctions(innerOrFilter, inner, stats) {
				continue
			}
			row = left.AppendRowTo(row[:0], lr)
			row = append(row, inner...)
			ok, err = residual.eval(row, stats)
			if err != nil {
				return nil, err
			}
			if ok {
				if err := e.emit(out, row); err != nil {
					return nil, err
				}
			}
		}
	}
	return out, nil
}

// columnMatches reports whether ref names alias.column (case-insensitive).
func columnMatches(ref expr.ColumnRef, alias, column string) bool {
	return strings.EqualFold(ref.Table, alias) && strings.EqualFold(ref.Column, column)
}

// joinSchema concatenates the two input schemas.
func joinSchema(l, r *storage.Schema) (*storage.Schema, error) {
	cols := make([]storage.ColumnDef, 0, l.NumColumns()+r.NumColumns())
	cols = append(cols, l.Columns()...)
	cols = append(cols, r.Columns()...)
	return storage.NewSchema(cols...)
}

// nlInner describes the inner input of a nested-loops join: either a base
// table re-scanned (with its filters re-applied) per outer row, or a
// materialized intermediate re-read per outer row.
type nlInner struct {
	base       *storage.Table
	schema     *storage.Schema
	rescan     bool
	filter     compiled
	orFilter   []compiledDisj
	joinFilter compiled
}

// nestedLoop joins left with the (re-scanned) inner input. When the inner
// is a base scan, the base table is re-read for each outer row, applying
// the scan filter each time — the honest cost the optimizer's
// NestedLoopCost models. When the inner is itself a join (bushy plans), it
// is materialized once and the materialization is re-read per outer row.
func (e *Executor) nestedLoop(j *optimizer.Join, left *storage.Table, stats *Stats, rec *recorder, depth int) (*storage.Table, error) {
	var in nlInner

	if scan, ok := j.Right.(*optimizer.Scan); ok {
		base := e.cat.Data(scan.Table)
		if base == nil {
			return nil, fmt.Errorf("executor: no data registered for table %q", scan.Table)
		}
		schema, err := qualifiedSchema(scan.Alias, base.Schema())
		if err != nil {
			return nil, err
		}
		in.base, in.schema, in.rescan = base, schema, true
		if in.filter, err = compileAll(scan.Filter, schema); err != nil {
			return nil, err
		}
		if in.orFilter, err = compileDisjunctions(scan.FilterOr, schema); err != nil {
			return nil, err
		}
		// The re-scanned inner is never materialized: record it with an
		// unknown actual cardinality.
		rec.reserve(scan, depth+1)
	} else {
		mat, err := e.run(j.Right, stats, rec, depth+1)
		if err != nil {
			return nil, err
		}
		in.base, in.schema = mat, mat.Schema()
	}

	outSchema, err := joinSchema(left.Schema(), in.schema)
	if err != nil {
		return nil, err
	}
	if in.joinFilter, err = compileAll(j.Preds, outSchema); err != nil {
		return nil, err
	}
	out := storage.NewTable("join", outSchema)
	if err := e.nlRange(left, in, out, 0, left.NumRows(), stats); err != nil {
		return nil, err
	}
	if !in.rescan {
		// A materialized (bushy) inner was charged by its own run; it dies
		// with this join.
		e.releaseTables(in.base)
	}
	return out, nil
}

// nlRange runs the nested-loops join for outer rows [start, end),
// re-reading the inner input per outer row.
func (e *Executor) nlRange(left *storage.Table, in nlInner, out *storage.Table, start, end int, stats *Stats) error {
	row := make([]storage.Value, 0, out.Schema().NumColumns())
	inner := make([]storage.Value, 0, in.schema.NumColumns())
	for lr := start; lr < end; lr++ {
		for rr := 0; rr < in.base.NumRows(); rr++ {
			if err := e.visit(stats); err != nil {
				return err
			}
			inner = in.base.AppendRowTo(inner[:0], rr)
			if in.rescan {
				ok, err := in.filter.eval(inner, stats)
				if err != nil {
					return err
				}
				if !ok || !evalDisjunctions(in.orFilter, inner, stats) {
					continue
				}
			}
			row = left.AppendRowTo(row[:0], lr)
			row = append(row, inner...)
			ok, err := in.joinFilter.eval(row, stats)
			if err != nil {
				return err
			}
			if ok {
				if err := e.emit(out, row); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// joinSpec is what every step of one equi-join shares — every partition of
// a hash join, the sort and the merge of a sort-merge join: the two inputs,
// the key ordinals and the residual conjunction.
type joinSpec struct {
	left, right *storage.Table
	lKey, rKey  int
	residual    compiled
	outSchema   *storage.Schema
}

// chunkSink is what a join kernel hands back: the output rows, the work
// counters the kernel accumulated, and — only for a hash-join probe over a
// probe-row list — the probe row behind each row of out, which the partition
// policy needs to merge partition outputs back into probe order.
type chunkSink struct {
	out    *storage.Table
	stats  Stats
	origin []int
}

// hashSpec is a hash join's spec plus the kernel its partition policy calls.
type hashSpec struct {
	*joinSpec
	// join runs build → probe → pair-gather for one partition: the right
	// rows named by rrows against the left rows named by lrows, in order. A
	// nil list means every row of that input; with a probe-row list, the
	// sink's origin reports the left row behind each output row. The caller
	// has already visited the rows.
	join func(rrows, lrows []int, stats *Stats) (*chunkSink, error)
	// scratch is the bytes of key arrays join derived from the inputs; they
	// live as long as the join does.
	scratch int64
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

// newJoinSpec resolves the first equality predicate of an equi-join as its
// physical key and compiles the remaining predicates as the residual.
func newJoinSpec(j *optimizer.Join, left, right *storage.Table) (*joinSpec, error) {
	keyPred, residuals := splitKey(j.Preds)
	if keyPred == nil {
		return nil, fmt.Errorf("executor: %v join requires an equality predicate", j.Method)
	}
	spec := &joinSpec{left: left, right: right}
	var err error
	if spec.outSchema, err = joinSchema(left.Schema(), right.Schema()); err != nil {
		return nil, err
	}
	if spec.lKey, spec.rKey, err = keyColumns(*keyPred, left.Schema(), right.Schema()); err != nil {
		return nil, err
	}
	if spec.residual, err = compileAll(residuals, spec.outSchema); err != nil {
		return nil, err
	}
	return spec, nil
}

// sortScratchPerRow is what a sort-merge join is charged per input row for
// the life of the join: the typed sort kernel's peak (the permutation, its
// radix double, the derived keys — storage.Table.SortPermutation). Nothing
// mergeJoin holds exceeds it: while one input sorts the other holds at most
// its permutation, and the merge holds the two permutations plus, for bool
// keys only, an 8-byte key per row. The row oracle is charged the same, so a
// byte budget admits or refuses a sort-merge join whichever engine runs it.
const sortScratchPerRow = 24

// sortMerge joins two materialized inputs on the first equality predicate
// as key sort → merge → pair-gather, applying the remaining predicates as
// residual filters. The engine picks the kernel: mergeJoin sorts and merges
// typed keys and emits through the hash join's pair sink; rowMerge is the
// boxed oracle it is held bit-identical to.
func (e *Executor) sortMerge(j *optimizer.Join, left, right *storage.Table, stats *Stats) (*storage.Table, error) {
	spec, err := newJoinSpec(j, left, right)
	if err != nil {
		return nil, err
	}
	// The sort scratch cannot be partitioned the way a hash build can, so a
	// budget that cannot cover it fails the query with a typed ErrMemory
	// rather than overrunning.
	n := int64(left.NumRows()) + int64(right.NumRows())
	scratch := sortScratchPerRow * n
	if err := e.gov.GrabBytes(scratch, "sort-merge scratch"); err != nil {
		return nil, err
	}
	defer e.gov.ReleaseBytes(scratch)
	stats.Comparisons += sortComparisons(left.NumRows()) + sortComparisons(right.NumRows())

	merge := e.rowMerge
	if e.useColumnar() {
		merge = e.mergeJoin
	}
	out, err := merge(spec, stats)
	if err != nil {
		return nil, err
	}
	// Scanning both inputs counts as work even where keys never matched.
	stats.TuplesScanned += n
	if err := e.gov.TickTuples(n); err != nil {
		return nil, err
	}
	return out, nil
}

// rowMerge is the row oracle's sort-merge kernel: a boxed stable sort of
// each input and a merge that compares, filters and emits one []Value row
// at a time.
func (e *Executor) rowMerge(spec *joinSpec, stats *Stats) (*storage.Table, error) {
	left, right, lKey, rKey := spec.left, spec.right, spec.lKey, spec.rKey
	lIdx := left.SortedIndices(lKey)
	rIdx := right.SortedIndices(rKey)

	out := storage.NewTable("join", spec.outSchema)
	row := make([]storage.Value, 0, spec.outSchema.NumColumns())
	li, ri := 0, 0
	for li < len(lIdx) && ri < len(rIdx) {
		lv := left.Value(lIdx[li], lKey)
		rv := right.Value(rIdx[ri], rKey)
		stats.Comparisons++
		if lv.IsNull() {
			li++
			continue
		}
		if rv.IsNull() {
			ri++
			continue
		}
		cmp := storage.Compare(lv, rv)
		switch {
		case cmp < 0:
			li++
		case cmp > 0:
			ri++
		default:
			// Find the extent of the equal-key runs and emit their product.
			lEnd := li
			for lEnd < len(lIdx) && storage.Equal(left.Value(lIdx[lEnd], lKey), lv) {
				lEnd++
			}
			rEnd := ri
			for rEnd < len(rIdx) && storage.Equal(right.Value(rIdx[rEnd], rKey), rv) {
				rEnd++
			}
			for a := li; a < lEnd; a++ {
				for b := ri; b < rEnd; b++ {
					if err := e.visit(stats); err != nil {
						return nil, err
					}
					row = left.AppendRowTo(row[:0], lIdx[a])
					row = right.AppendRowTo(row, rIdx[b])
					ok, err := spec.residual.eval(row, stats)
					if err != nil {
						return nil, err
					}
					if ok {
						if err := e.emit(out, row); err != nil {
							return nil, err
						}
					}
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	return out, nil
}

// hashJoin joins on the first equality predicate as one pipeline:
// partition → build → probe → pair-gather. The partition policy decides
// which build rows and which probe rows meet — everything at once, or
// Grace partitions of row lists under a byte budget (partitionJoin); the
// kernel behind spec.join — colJoin, or rowJoin for the row oracle — joins
// one partition.
func (e *Executor) hashJoin(j *optimizer.Join, left, right *storage.Table, stats *Stats) (*storage.Table, error) {
	shared, err := newJoinSpec(j, left, right)
	if err != nil {
		return nil, err
	}
	spec := &hashSpec{joinSpec: shared}
	// The hash table pins about as much again as the right input for the
	// duration of the join. That deterministic footprint (the input bytes,
	// identical across engines) both feeds the partition decision — taken
	// here, at the operator boundary, before any engine's scratch is on the
	// ledger — and, when the join runs as one partition, is charged as
	// working memory.
	need := right.ApproxBytes()
	partition := e.gov.ShouldSpill(need)
	if e.useColumnar() {
		e.bindColumnar(spec)
	} else {
		spec.join = func(rrows, lrows []int, stats *Stats) (*chunkSink, error) {
			return e.rowJoin(shared, rrows, lrows, stats)
		}
	}
	e.gov.ChargeBytes(spec.scratch)
	defer e.gov.ReleaseBytes(spec.scratch)
	// Whatever the partition policy, both inputs are visited once.
	n := int64(right.NumRows()) + int64(left.NumRows())
	stats.TuplesScanned += n
	if err := e.gov.TickTuples(n); err != nil {
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

// rowJoin is the row oracle's kernel for one partition: a boxed,
// Value.Key()-keyed build and probe that the columnar kernel is held
// bit-identical to.
func (e *Executor) rowJoin(spec *joinSpec, rrows, lrows []int, stats *Stats) (*chunkSink, error) {
	left, right := spec.left, spec.right
	builds := rowCount(rrows, right.NumRows())
	m := make(map[string][]int, builds)
	for i := 0; i < builds; i++ {
		r := rowAt(rrows, i)
		if v := right.Value(r, spec.rKey); !v.IsNull() {
			k := v.Key()
			m[k] = append(m[k], r)
		}
	}
	sink := &chunkSink{out: storage.NewTable("join", spec.outSchema)}
	row := make([]storage.Value, 0, spec.outSchema.NumColumns())
	for i, n := 0, rowCount(lrows, left.NumRows()); i < n; i++ {
		l := rowAt(lrows, i)
		v := left.Value(l, spec.lKey)
		if v.IsNull() {
			continue
		}
		for _, r := range m[v.Key()] {
			row = left.AppendRowTo(row[:0], l)
			row = right.AppendRowTo(row, r)
			ok, err := spec.residual.eval(row, stats)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			if err := e.emit(sink.out, row); err != nil {
				return nil, err
			}
			if lrows != nil {
				sink.origin = append(sink.origin, l)
			}
		}
	}
	return sink, nil
}

// splitKey picks the first equality join predicate as the physical key and
// returns the rest as residuals.
func splitKey(preds []expr.Predicate) (*expr.Predicate, []expr.Predicate) {
	for i, p := range preds {
		if p.Op == expr.OpEQ && p.RightIsColumn {
			residuals := make([]expr.Predicate, 0, len(preds)-1)
			residuals = append(residuals, preds[:i]...)
			residuals = append(residuals, preds[i+1:]...)
			return &preds[i], residuals
		}
	}
	return nil, preds
}

// keyColumns resolves the key predicate's two sides to column ordinals in
// the left and right schemas (in either order).
func keyColumns(p expr.Predicate, l, r *storage.Schema) (int, int, error) {
	lName := p.Left.Table + "." + p.Left.Column
	rName := p.Right.Table + "." + p.Right.Column
	if li := l.ColumnIndex(lName); li >= 0 {
		if ri := r.ColumnIndex(rName); ri >= 0 {
			return li, ri, nil
		}
	}
	if li := l.ColumnIndex(rName); li >= 0 {
		if ri := r.ColumnIndex(lName); ri >= 0 {
			return li, ri, nil
		}
	}
	return 0, 0, fmt.Errorf("executor: key predicate %s does not span the join inputs", p)
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
