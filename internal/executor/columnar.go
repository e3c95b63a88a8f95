// Vectorized execution. The batch engine runs scans, hash joins and
// sort-merge joins over column chunks: predicates evaluate type-specialized
// kernels over flat column slices, qualifying rows live in selection vectors
// (no row is materialized until the final gather), and both joins hand their
// candidate (left row, right row) pairs to one pair sink that filters them
// through the residual kernels and gathers survivors column-wise. Selection
// vectors are recycled through an internal/workpool arena shared by every
// query in the process, so execution stays allocation-flat.
//
// The engine is bit-identical to the row-at-a-time oracle: same output
// rows in the same order, same TuplesScanned/Comparisons totals, same
// governor tuple/row charges. That parity is load-bearing — the differential
// harness referees the two engines against each other — so the kernels
// replicate the oracle's short-circuit counting exactly: a conjunction
// evaluates each predicate only over the survivors of the previous one, a
// NULL operand is counted as a comparison and then dropped, and OR-groups
// stop counting a row at its first true disjunct.
package executor

import (
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/workpool"
)

// colBatch is the columnar scan batch size: base-table rows are visited,
// filtered, and gathered in runs of this many, bounding selection-vector
// memory while keeping per-batch bookkeeping negligible. The hash join
// flushes matched pairs at the same granularity.
const colBatch = 4096

// selArena recycles the batch engine's selection vectors across executors
// and the goroutines of concurrent queries.
var selArena = workpool.NewArena[int]()

// useColumnar resolves the engine choice for this execution: the
// vectorized kernels unless Limits.DisableColumnar asks for the row oracle.
func (e *Executor) useColumnar() bool {
	return !e.gov.ColumnarDisabled()
}

// scanRangeColumnar is the vectorized scanRange body: rows [start, end) are
// visited in batches, filtered through selection vectors, and gathered
// column-wise into out. A scan without predicates has nothing to select:
// each batch is charged the same and copied as a row range.
func (e *Executor) scanRangeColumnar(base *storage.Table, start, end int, filter compiled,
	orFilter []compiledDisj, out *storage.Table, stats *Stats) error {
	ncols := base.Schema().NumColumns()
	unfiltered := len(filter.preds) == 0 && len(orFilter) == 0
	if unfiltered {
		// One allocation for the whole range, but never for more rows than
		// the budgets will let the batches below emit.
		out.Reserve(int(e.gov.Headroom(int64(end - start))))
	}
	for b := start; b < end; b += colBatch {
		bEnd := min(b+colBatch, end)
		n := bEnd - b
		stats.TuplesScanned += int64(n)
		if err := e.gov.TickTuples(int64(n)); err != nil {
			return err
		}
		if unfiltered {
			if err := e.gov.TickRows(int64(n)); err != nil {
				return err
			}
			if err := out.AppendRange(base, b, bEnd); err != nil {
				return err
			}
			continue
		}
		sel := selArena.Get(n)
		// Charge what the batch asked for, not what the arena happened to
		// hand back: the ledger must not depend on which buffers earlier
		// queries recycled.
		arena := int64(8 * n)
		e.gov.ChargeBytes(arena) // batch-arena scratch, released with the batch
		put := func() {
			e.gov.ReleaseBytes(arena)
			selArena.Put(sel)
		}
		for r := b; r < bEnd; r++ {
			sel = append(sel, r)
		}
		// A single-table filter is the pair filter with both sides the
		// same table and the same selection vector.
		sel, _ = filterPairs(base, base, ncols, filter, sel, sel, stats)
		sel = disjSel(base, orFilter, sel, stats)
		if len(sel) > 0 {
			if err := e.gov.TickRows(int64(len(sel))); err != nil {
				put()
				return err
			}
			if err := out.AppendGather(base, sel); err != nil {
				put()
				return err
			}
		}
		put()
	}
	return nil
}

// cmpOrd is the shared ordering kernel. For float64 it matches
// storage.Compare's compareFloat exactly (NaN compares "equal" to
// everything, as neither < nor > holds).
func cmpOrd[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// filterPairs applies a conjunction to candidate (left row, right row)
// pairs, compacting lsel/rsel in place. Column ordinals below lcols address
// left through lsel, the rest address right through rsel. Counting matches
// compiled.eval per pair: each predicate evaluates only over the pairs that
// survived the previous one.
func filterPairs(left, right *storage.Table, lcols int, conj compiled, lsel, rsel []int, stats *Stats) ([]int, []int) {
	for _, p := range conj.preds {
		if len(lsel) == 0 {
			break
		}
		n := predSel(left, right, lcols, p, lsel, rsel, stats)
		lsel, rsel = lsel[:n], rsel[:n]
	}
	return lsel, rsel
}

// pairSide resolves a joined-schema column ordinal to the underlying input
// column view and the pair-index slice that addresses it.
func pairSide(left, right *storage.Table, lcols, idx int, lsel, rsel []int) (storage.ColumnData, []int) {
	if idx < lcols {
		return left.ColumnData(idx), lsel
	}
	return right.ColumnData(idx - lcols), rsel
}

// predSel is the one predicate kernel: it filters pairs by p, compacting
// both selection vectors in place (they may be the same slice), and
// returns how many pairs survive. Every pair counts one comparison (NULL
// operands included), matching compiledPred.evalOne.
func predSel(left, right *storage.Table, lcols int, p compiledPred, lsel, rsel []int, stats *Stats) int {
	stats.Comparisons += int64(len(lsel))
	ld, lrows := pairSide(left, right, lcols, p.leftIdx, lsel, rsel)
	if p.rightIdx < 0 {
		c := p.constant
		switch {
		case c.IsNull():
			return 0 // counted, never true
		case ld.Type == storage.TypeInt64 && c.Type() == storage.TypeInt64:
			return selCmpConst(ld.Ints, ld.Nulls, lrows, c.Int(), p.op, lsel, rsel)
		case ld.Type == storage.TypeFloat64 && c.Type() == storage.TypeFloat64:
			return selCmpConst(ld.Floats, ld.Nulls, lrows, c.Float(), p.op, lsel, rsel)
		case ld.Type == storage.TypeString && c.Type() == storage.TypeString:
			return selCmpConst(ld.Strs, ld.Nulls, lrows, c.Str(), p.op, lsel, rsel)
		case numericType(ld.Type) && numericType(c.Type()):
			cf := c.AsFloat()
			return selKeep(lsel, rsel, func(i int) bool {
				r := lrows[i]
				return !ld.Null(r) && p.op.Holds(cmpOrd(numericAt(ld, r), cf))
			})
		}
		// Boxed fallback with exactly the row oracle's semantics,
		// including its panic on non-comparable type pairs.
		return selKeep(lsel, rsel, func(i int) bool {
			lv := ld.Value(lrows[i])
			return !lv.IsNull() && p.op.Holds(storage.Compare(lv, c))
		})
	}
	rd, rrows := pairSide(left, right, lcols, p.rightIdx, lsel, rsel)
	switch {
	case ld.Type == storage.TypeInt64 && rd.Type == storage.TypeInt64:
		return selCmpCols(ld.Ints, ld.Nulls, lrows, rd.Ints, rd.Nulls, rrows, p.op, lsel, rsel)
	case ld.Type == storage.TypeFloat64 && rd.Type == storage.TypeFloat64:
		return selCmpCols(ld.Floats, ld.Nulls, lrows, rd.Floats, rd.Nulls, rrows, p.op, lsel, rsel)
	case ld.Type == storage.TypeString && rd.Type == storage.TypeString:
		return selCmpCols(ld.Strs, ld.Nulls, lrows, rd.Strs, rd.Nulls, rrows, p.op, lsel, rsel)
	case numericType(ld.Type) && numericType(rd.Type):
		return selKeep(lsel, rsel, func(i int) bool {
			lr, rr := lrows[i], rrows[i]
			return !ld.Null(lr) && !rd.Null(rr) && p.op.Holds(cmpOrd(numericAt(ld, lr), numericAt(rd, rr)))
		})
	}
	return selKeep(lsel, rsel, func(i int) bool {
		lv, rv := ld.Value(lrows[i]), rd.Value(rrows[i])
		return !lv.IsNull() && !rv.IsNull() && p.op.Holds(storage.Compare(lv, rv))
	})
}

func numericType(t storage.Type) bool {
	return t == storage.TypeInt64 || t == storage.TypeFloat64
}

// numericAt reads row r of a numeric column as float64, storage.Compare's
// rule for comparing an int64 with a float64.
func numericAt(d storage.ColumnData, r int) float64 {
	if d.Type == storage.TypeInt64 {
		return float64(d.Ints[r])
	}
	return d.Floats[r]
}

// selCmpConst is the column-vs-constant kernel for one ordered type: rows
// addresses vals for each pair.
func selCmpConst[T int64 | float64 | string](vals []T, nulls []bool, rows []int, c T,
	op expr.CompareOp, lsel, rsel []int) int {
	out := 0
	for i, r := range rows {
		if nulls != nil && nulls[r] {
			continue
		}
		if op.Holds(cmpOrd(vals[r], c)) {
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out++
		}
	}
	return out
}

// selCmpCols is the column-vs-column kernel for one ordered type.
func selCmpCols[T int64 | float64 | string](l []T, ln []bool, lrows []int, r []T, rn []bool, rrows []int,
	op expr.CompareOp, lsel, rsel []int) int {
	out := 0
	for i, lr := range lrows {
		rr := rrows[i]
		if (ln != nil && ln[lr]) || (rn != nil && rn[rr]) {
			continue
		}
		if op.Holds(cmpOrd(l[lr], r[rr])) {
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out++
		}
	}
	return out
}

// selKeep compacts the pairs for which keep holds. It serves the shapes
// too rare to specialize: mixed-width numerics and the boxed fallback.
func selKeep(lsel, rsel []int, keep func(i int) bool) int {
	out := 0
	for i := range lsel {
		if keep(i) {
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out++
		}
	}
	return out
}

// disjSel applies the OR-groups in order, each over the survivors of the
// previous. Within a group a row stops counting at its first true disjunct,
// exactly like evalDisjunctions.
func disjSel(tbl *storage.Table, ds []compiledDisj, sel []int, stats *Stats) []int {
	for _, d := range ds {
		if len(sel) == 0 {
			return sel
		}
		out := sel[:0]
		for _, r := range sel {
			if disjRow(tbl, d, r, stats) {
				out = append(out, r)
			}
		}
		sel = out
	}
	return sel
}

// disjRow evaluates one OR-group for one row, boxed. Disjunctions are rare
// enough that the batch engine keeps them scalar; the counting matches
// evalOne per disjunct evaluated.
func disjRow(tbl *storage.Table, d compiledDisj, r int, stats *Stats) bool {
	for _, p := range d.preds {
		stats.Comparisons++
		lv := tbl.ColumnData(p.leftIdx).Value(r)
		rv := p.constant
		if p.rightIdx >= 0 {
			rv = tbl.ColumnData(p.rightIdx).Value(r)
		}
		if lv.IsNull() || rv.IsNull() {
			continue
		}
		if p.op.Holds(storage.Compare(lv, rv)) {
			return true
		}
	}
	return false
}

// bindColumnar picks the key representation for one hash join and binds
// spec.join to the typed kernel. Keys of one specializable type hash
// natively; bool and mixed-type keys hash their Value.Key() strings, which
// group exactly the values the row oracle groups (an int64 never equals a
// float64 there).
func (e *Executor) bindColumnar(spec *hashSpec) {
	rtype := spec.right.Schema().Column(spec.rKey).Type
	switch ltype := spec.left.Schema().Column(spec.lKey).Type; {
	case ltype != rtype || ltype == storage.TypeBool:
		bindKeys(e, spec, boxedKeys)
	case ltype == storage.TypeInt64:
		bindKeys(e, spec, func(t *storage.Table, col int) ([]int64, int64) { return t.ColumnData(col).Ints, 0 })
	case ltype == storage.TypeFloat64:
		bindKeys(e, spec, floatKeys)
	default:
		bindKeys(e, spec, func(t *storage.Table, col int) ([]string, int64) { return t.ColumnData(col).Strs, 0 })
	}
}

// bindKeys derives both inputs' keys once per join, whatever the partition
// policy does with them. keysOf reports the bytes of any array it had to
// derive; the join holds them as scratch until it returns.
func bindKeys[K comparable](e *Executor, spec *hashSpec, keysOf func(t *storage.Table, col int) ([]K, int64)) {
	lk, lscratch := keysOf(spec.left, spec.lKey)
	rk, rscratch := keysOf(spec.right, spec.rKey)
	spec.scratch = lscratch + rscratch
	spec.join = func(rrows, lrows []int, stats *Stats) (*chunkSink, error) {
		return colJoin(e, spec.joinSpec, lk, rk, rrows, lrows, stats)
	}
}

// floatKeys normalizes a float64 column to hashable bit patterns. -0.0 maps
// to 0.0, matching Value.Key()'s float encoding, so the typed map groups
// exactly the values the row oracle's string keys group.
func floatKeys(t *storage.Table, col int) ([]uint64, int64) {
	vals := t.ColumnData(col).Floats
	out := make([]uint64, len(vals))
	for i, f := range vals {
		if f == 0 {
			f = 0
		}
		out[i] = math.Float64bits(f)
	}
	return out, int64(8 * len(out))
}

// boxedKeys renders any column as Value.Key() strings. NULL rows keep the
// empty string; the kernel never looks at them.
func boxedKeys(t *storage.Table, col int) ([]string, int64) {
	out := make([]string, t.NumRows())
	size := int64(16 * len(out))
	for r := range out {
		if v := t.Value(r, col); !v.IsNull() {
			out[r] = v.Key()
			size += int64(len(out[r]))
		}
	}
	return out, size
}

// colJoin is the typed build → probe → pair-gather kernel for one
// partition: build a map over the keys of the right rows named by rrows
// (nil: every right row), probe it with the left rows named by lrows (nil:
// every left row) in order, batch matched pairs, filter them through the
// residual kernels, and gather survivors column-wise. With a probe-row list
// the sink also reports the left row behind each output row.
func colJoin[K comparable](e *Executor, spec *joinSpec, lk, rk []K, rrows, lrows []int, stats *Stats) (*chunkSink, error) {
	rn := spec.right.ColumnData(spec.rKey).Nulls
	builds := rowCount(rrows, len(rk))
	m := make(map[K][]int, builds)
	for i := 0; i < builds; i++ {
		if r := rowAt(rrows, i); rn == nil || !rn[r] {
			m[rk[r]] = append(m[rk[r]], r)
		}
	}
	ln := spec.left.ColumnData(spec.lKey).Nulls
	sink := &chunkSink{out: storage.NewTable("join", spec.outSchema)}
	pairs := e.newPairSink(spec, sink, lrows != nil)
	defer pairs.release()
	for i, n := 0, rowCount(lrows, len(lk)); i < n; i++ {
		l := rowAt(lrows, i)
		if ln != nil && ln[l] {
			continue
		}
		for _, r := range m[lk[l]] {
			pairs.lsel = append(pairs.lsel, l)
			pairs.rsel = append(pairs.rsel, r)
		}
		if len(pairs.lsel) >= colBatch {
			if err := pairs.flush(); err != nil {
				return nil, err
			}
		}
	}
	if err := pairs.flush(); err != nil {
		return nil, err
	}
	stats.Add(sink.stats)
	return sink, nil
}

// pairSink is where the candidate pairs of either join become output rows.
// The hash-join probe and the sort-merge merge append (left row, right row)
// indices to lsel/rsel and flush about every colBatch pairs: the residual
// kernels compact the batch, the survivors are charged to the row budget
// and gathered column-wise into out.
type pairSink struct {
	e          *Executor
	spec       *joinSpec
	out        *chunkSink
	origin     bool // also report the left row behind each output row
	lsel, rsel []int
}

// pairArenaBytes is the ledger charge for one sink's two pair batches: the
// capacity it asks the arena for, whatever capacity the arena hands back.
const pairArenaBytes = 8 * 2 * colBatch

func (e *Executor) newPairSink(spec *joinSpec, out *chunkSink, origin bool) *pairSink {
	p := &pairSink{e: e, spec: spec, out: out, origin: origin,
		lsel: selArena.Get(colBatch), rsel: selArena.Get(colBatch)}
	e.gov.ChargeBytes(pairArenaBytes) // pair-batch arena scratch, released with the sink
	return p
}

func (p *pairSink) release() {
	selArena.Put(p.lsel)
	selArena.Put(p.rsel)
	p.e.gov.ReleaseBytes(pairArenaBytes)
}

// flush turns the batched pairs into output rows and empties the batch.
func (p *pairSink) flush() error {
	left, right := p.spec.left, p.spec.right
	fl, fr := filterPairs(left, right, left.Schema().NumColumns(), p.spec.residual, p.lsel, p.rsel, &p.out.stats)
	if len(fl) > 0 {
		if err := p.e.gov.TickRows(int64(len(fl))); err != nil {
			return err
		}
		if err := p.out.out.AppendPairGather(left, right, fl, fr); err != nil {
			return err
		}
		if p.origin {
			p.out.origin = append(p.out.origin, fl...)
		}
	}
	p.lsel, p.rsel = p.lsel[:0], p.rsel[:0]
	return nil
}

// mergeJoin is the typed sort-merge kernel: it sorts both inputs' keys with
// storage's typed permutation kernel and merges them with the comparator
// storage.Compare would pick for the key types. Bool keys merge as 0/1
// integers; an int64 key meets a float64 key as float64, while runs of
// equal keys within one input compare in that input's own type, exactly as
// the oracle's Equal does.
func (e *Executor) mergeJoin(spec *joinSpec, stats *Stats) (*storage.Table, error) {
	right := spec.right
	ld, rd := spec.left.ColumnData(spec.lKey), right.ColumnData(spec.rKey)
	sink := &chunkSink{out: storage.NewTable("join", spec.outSchema)}
	pairs := e.newPairSink(spec, sink, false)
	defer pairs.release()
	l := mergeSide{spec.left.SortPermutation(spec.lKey), ld.Nulls}
	r := mergeSide{right.SortPermutation(spec.rKey), rd.Nulls}
	var err error
	switch {
	case ld.Type == storage.TypeInt64 && rd.Type == storage.TypeInt64:
		err = mergeRuns(pairs, l, r, ld.Ints, rd.Ints, cmpOrd[int64])
	case ld.Type == storage.TypeFloat64 && rd.Type == storage.TypeFloat64:
		err = mergeRuns(pairs, l, r, ld.Floats, rd.Floats, cmpOrd[float64])
	case ld.Type == storage.TypeString && rd.Type == storage.TypeString:
		err = mergeRuns(pairs, l, r, ld.Strs, rd.Strs, cmpOrd[string])
	case ld.Type == storage.TypeBool && rd.Type == storage.TypeBool:
		// Derived only now, with both sorts' scratch dead, so the join never
		// holds more than sortScratchPerRow per input row.
		err = mergeRuns(pairs, l, r, boolInts(ld.Bools), boolInts(rd.Bools), cmpOrd[int64])
	case ld.Type == storage.TypeInt64 && rd.Type == storage.TypeFloat64:
		err = mergeRuns(pairs, l, r, ld.Ints, rd.Floats,
			func(l int64, r float64) int { return cmpOrd(float64(l), r) })
	case ld.Type == storage.TypeFloat64 && rd.Type == storage.TypeInt64:
		err = mergeRuns(pairs, l, r, ld.Floats, rd.Ints,
			func(l float64, r int64) int { return cmpOrd(l, float64(r)) })
	default:
		err = fmt.Errorf("executor: sort-merge keys of types %s and %s do not compare", ld.Type, rd.Type)
	}
	if err != nil {
		return nil, err
	}
	stats.Add(sink.stats)
	return sink.out, nil
}

// mergeSide is one sorted input of the merge: its rows in key order and the
// key column's NULL flags (nil when it has none).
type mergeSide struct {
	perm  []int
	nulls []bool
}

func (s mergeSide) null(r int) bool { return s.nulls != nil && s.nulls[r] }

// boolInts renders a bool column as 0/1 so it merges through the int64
// kernel in Compare's order, false before true.
func boolInts(bools []bool) []int64 {
	out := make([]int64, len(bools))
	for i, b := range bools {
		if b {
			out[i] = 1
		}
	}
	return out
}

// mergeRuns merges the two sorted key sequences. Every loop iteration
// counts one comparison, the steps over leading NULL keys included; each
// pair of an equal-key run product, left-major, counts one visited tuple
// and goes to the pair sink, which applies the residual.
func mergeRuns[L, R int64 | float64 | string](pairs *pairSink, left, right mergeSide,
	lk []L, rk []R, cross func(L, R) int) error {
	stats, lperm, rperm := &pairs.out.stats, left.perm, right.perm
	flush := func() error {
		n := int64(len(pairs.lsel))
		stats.TuplesScanned += n
		if err := pairs.e.gov.TickTuples(n); err != nil {
			return err
		}
		return pairs.flush()
	}
	li, ri := 0, 0
	for li < len(lperm) && ri < len(rperm) {
		stats.Comparisons++
		l, r := lperm[li], rperm[ri]
		if left.null(l) {
			li++
			continue
		}
		if right.null(r) {
			ri++
			continue
		}
		lv, rv := lk[l], rk[r]
		switch c := cross(lv, rv); {
		case c < 0:
			li++
		case c > 0:
			ri++
		default:
			// A run ends at a NULL as it does for the oracle's Equal: only a
			// column NaN keys left unordered has one past the front.
			lEnd, rEnd := li+1, ri+1
			for lEnd < len(lperm) && !left.null(lperm[lEnd]) && cmpOrd(lk[lperm[lEnd]], lv) == 0 {
				lEnd++
			}
			for rEnd < len(rperm) && !right.null(rperm[rEnd]) && cmpOrd(rk[rperm[rEnd]], rv) == 0 {
				rEnd++
			}
			for _, l := range lperm[li:lEnd] {
				for run := rperm[ri:rEnd]; len(run) > 0; {
					n := min(len(run), colBatch-len(pairs.lsel))
					for _, r := range run[:n] {
						pairs.lsel = append(pairs.lsel, l)
						pairs.rsel = append(pairs.rsel, r)
					}
					run = run[n:]
					if len(pairs.lsel) == colBatch {
						if err := flush(); err != nil {
							return err
						}
					}
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	return flush()
}
