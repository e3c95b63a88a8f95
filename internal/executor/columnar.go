// The typed kernels every operator evaluates predicates with. Predicates
// run over flat column slices, qualifying rows live in selection vectors (no
// row is materialized until the final gather), and every join hands its
// candidate (left row, right row) pairs to one pair sink that filters them
// through the residual kernels and gathers survivors column-wise. Selection
// vectors are recycled through an internal/workpool arena shared by every
// query in the process, so execution stays allocation-flat.
//
// The counters are part of the paper's reproduction (Section 8 is measured
// in executed tuples), so the kernels count exactly: a conjunction evaluates
// each predicate only over the survivors of the previous one, a NULL operand
// is counted as a comparison and then dropped, and OR-groups stop counting a
// row at its first true disjunct.
package executor

import (
	"fmt"
	"math"

	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/storage"
	"repro/internal/workpool"
)

// colBatch is the batch size: scanned and re-scanned base-table rows are
// visited, filtered, and gathered in runs of this many, bounding
// selection-vector memory while keeping per-batch bookkeeping negligible.
// The pair sink flushes candidate pairs at the same granularity.
const colBatch = 4096

// selArena recycles the kernels' selection vectors across executors and
// the goroutines of concurrent queries.
var selArena = workpool.NewArena[int]()

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
// left through lsel, the rest address right through rsel. Each predicate
// evaluates only over the pairs that survived the previous one.
func filterPairs(left, right *storage.Table, lcols int, conj []optimizer.Cond, lsel, rsel []int, stats *Stats) ([]int, []int) {
	for _, p := range conj {
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
// returns how many pairs survive. Every pair counts one comparison, NULL
// operands included.
func predSel(left, right *storage.Table, lcols int, p optimizer.Cond, lsel, rsel []int, stats *Stats) int {
	stats.Comparisons += int64(len(lsel))
	ld, lrows := pairSide(left, right, lcols, p.Left, lsel, rsel)
	if p.Right < 0 {
		c := p.Const
		switch {
		case c.IsNull():
			return 0 // counted, never true
		case ld.Type == storage.TypeInt64 && c.Type() == storage.TypeInt64:
			return selCmpConst(ld.Ints, ld.Nulls, lrows, c.Int(), p.Op, lsel, rsel)
		case ld.Type == storage.TypeFloat64 && c.Type() == storage.TypeFloat64:
			return selCmpConst(ld.Floats, ld.Nulls, lrows, c.Float(), p.Op, lsel, rsel)
		case ld.Type == storage.TypeString && c.Type() == storage.TypeString:
			return selCmpConst(ld.Strs, ld.Nulls, lrows, c.Str(), p.Op, lsel, rsel)
		case numericType(ld.Type) && numericType(c.Type()):
			cf := c.AsFloat()
			return selKeep(lsel, rsel, func(i int) bool {
				r := lrows[i]
				return !ld.Null(r) && p.Op.Holds(cmpOrd(numericAt(ld, r), cf))
			})
		}
		// Boxed fallback: bool columns, and type pairs the binder rejects.
		return selKeep(lsel, rsel, func(i int) bool {
			lv := ld.Value(lrows[i])
			return !lv.IsNull() && p.Op.Holds(storage.Compare(lv, c))
		})
	}
	rd, rrows := pairSide(left, right, lcols, p.Right, lsel, rsel)
	switch {
	case ld.Type == storage.TypeInt64 && rd.Type == storage.TypeInt64:
		return selCmpCols(ld.Ints, ld.Nulls, lrows, rd.Ints, rd.Nulls, rrows, p.Op, lsel, rsel)
	case ld.Type == storage.TypeFloat64 && rd.Type == storage.TypeFloat64:
		return selCmpCols(ld.Floats, ld.Nulls, lrows, rd.Floats, rd.Nulls, rrows, p.Op, lsel, rsel)
	case ld.Type == storage.TypeString && rd.Type == storage.TypeString:
		return selCmpCols(ld.Strs, ld.Nulls, lrows, rd.Strs, rd.Nulls, rrows, p.Op, lsel, rsel)
	case numericType(ld.Type) && numericType(rd.Type):
		return selKeep(lsel, rsel, func(i int) bool {
			lr, rr := lrows[i], rrows[i]
			return !ld.Null(lr) && !rd.Null(rr) && p.Op.Holds(cmpOrd(numericAt(ld, lr), numericAt(rd, rr)))
		})
	}
	return selKeep(lsel, rsel, func(i int) bool {
		lv, rv := ld.Value(lrows[i]), rd.Value(rrows[i])
		return !lv.IsNull() && !rv.IsNull() && p.Op.Holds(storage.Compare(lv, rv))
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
// previous. Within a group a row stops counting at its first true disjunct.
func disjSel(tbl *storage.Table, ds [][]optimizer.Cond, sel []int, stats *Stats) []int {
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
// enough that the kernels keep them scalar; each disjunct evaluated counts
// one comparison.
func disjRow(tbl *storage.Table, d []optimizer.Cond, r int, stats *Stats) bool {
	for _, p := range d {
		stats.Comparisons++
		lv := tbl.ColumnData(p.Left).Value(r)
		rv := p.Const
		if p.Right >= 0 {
			rv = tbl.ColumnData(p.Right).Value(r)
		}
		if lv.IsNull() || rv.IsNull() {
			continue
		}
		if p.Op.Holds(storage.Compare(lv, rv)) {
			return true
		}
	}
	return false
}

// bindHashKeys picks the key representation for one hash join, and the
// seeded hash its tables use, and binds spec.join to the typed kernel. Keys
// of one specializable type hash natively, and an int64 key meets a float64
// one as float64 bits, as storage.Compare meets them; bool keys hash their
// Value.Key() strings, which group exactly the values Compare calls equal.
func (e *Executor) bindHashKeys(spec *hashSpec) {
	ltype := spec.left.Schema().Column(spec.lKey).Type
	rtype := spec.right.Schema().Column(spec.rKey).Type
	switch {
	case ltype != rtype && numericType(ltype) && numericType(rtype):
		spec.numeric = true
		bindKeys(e, spec, floatKeys, wordHash[uint64](hashSeed))
	case ltype != rtype || ltype == storage.TypeBool:
		bindKeys(e, spec, boxedKeys, strHash(hashSeed))
	case ltype == storage.TypeInt64:
		bindKeys(e, spec, func(t *storage.Table, col int) ([]int64, int64) { return t.ColumnData(col).Ints, 0 },
			wordHash[int64](hashSeed))
	case ltype == storage.TypeFloat64:
		bindKeys(e, spec, floatKeys, wordHash[uint64](hashSeed))
	default:
		bindKeys(e, spec, func(t *storage.Table, col int) ([]string, int64) { return t.ColumnData(col).Strs, 0 },
			strHash(hashSeed))
	}
}

// bindKeys derives both inputs' keys once per join, whatever the partition
// policy does with them. keysOf reports the bytes of any array it had to
// derive; the join holds them as scratch until it returns.
func bindKeys[K comparable](e *Executor, spec *hashSpec, keysOf func(t *storage.Table, col int) ([]K, int64), hash func(K) uint64) {
	lk, lscratch := keysOf(spec.left, spec.lKey)
	rk, rscratch := keysOf(spec.right, spec.rKey)
	spec.scratch = lscratch + rscratch
	spec.join = func(rrows, lrows []int, stats *Stats) (*pairSink, error) {
		return colJoin(e, spec.joinSpec, lk, rk, hash, rrows, lrows, stats)
	}
}

// floatKeys renders a numeric column as hashable float64 bit patterns
// (floatBits).
func floatKeys(t *storage.Table, col int) ([]uint64, int64) {
	d := t.ColumnData(col)
	out := make([]uint64, t.NumRows())
	for i := range out {
		out[i] = floatBits(numericAt(d, i))
	}
	return out, int64(8 * len(out))
}

// floatBits is the hash key of a float64: -0.0 maps to 0.0, the two values
// Compare calls equal.
func floatBits(f float64) uint64 {
	if f == 0 {
		f = 0
	}
	return math.Float64bits(f)
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
// partition: build a flat hash table (hashTable) over the keys of the right
// rows named by rrows (nil: every right row), probe it with the left rows
// named by lrows (nil: every left row) in order, and hand each probe row's
// matching build rows, ascending, to the pair sink. With a probe-row list
// the sink also reports the left row behind each output row.
func colJoin[K comparable](e *Executor, spec *joinSpec, lk, rk []K, hash func(K) uint64, rrows, lrows []int, stats *Stats) (*pairSink, error) {
	if builds := rowCount(rrows, len(rk)); builds > math.MaxInt32 {
		return nil, fmt.Errorf("executor: a hash-join build of %d rows exceeds the table's 2^31-row limit", builds)
	}
	table := newHashTable(rk, spec.right.ColumnData(spec.rKey).Nulls, rrows, hash)
	ln := spec.left.ColumnData(spec.lKey).Nulls
	pairs := e.newPairSink(spec, stats, lrows != nil)
	defer pairs.release()
	for i, n := 0, rowCount(lrows, len(lk)); i < n; i++ {
		l := rowAt(lrows, i)
		if ln != nil && ln[l] {
			continue
		}
		if err := pairs.add(l, table.lookup(lk[l])); err != nil {
			return nil, err
		}
	}
	if err := pairs.flush(); err != nil {
		return nil, err
	}
	return pairs, nil
}

// pairSink is where the candidate pairs of every join become output rows.
// A join adds (left row, right rows) and the sink flushes every colBatch
// pairs: the residual kernels compact the batch, the survivors are charged
// to the row budget and gathered column-wise into out.
type pairSink struct {
	e     *Executor
	spec  *joinSpec
	stats *Stats
	out   *storage.Table
	// origin, kept only when asked for, is the left row behind each row of
	// out, which the partition policy merges partition outputs back by.
	origin      []int
	keepOrigin  bool
	visitsPairs bool // each pair counts one visited tuple (sort-merge)
	lsel, rsel  []int
}

// pairArenaBytes is the ledger charge for one sink's two pair batches: the
// capacity it asks the arena for, whatever capacity the arena hands back.
const pairArenaBytes = 8 * 2 * colBatch

func (e *Executor) newPairSink(spec *joinSpec, stats *Stats, keepOrigin bool) *pairSink {
	p := &pairSink{e: e, spec: spec, stats: stats, keepOrigin: keepOrigin,
		out:  storage.NewTable("join", spec.outSchema),
		lsel: selArena.Get(colBatch), rsel: selArena.Get(colBatch)}
	e.gov.ChargeBytes(pairArenaBytes) // pair-batch arena scratch, released with the sink
	return p
}

func (p *pairSink) release() {
	selArena.Put(p.lsel)
	selArena.Put(p.rsel)
	p.e.gov.ReleaseBytes(pairArenaBytes)
}

// add queues the pairs of left row l with each of the right rows rs, in
// order, flushing whenever the batch fills.
func (p *pairSink) add(l int, rs []int) error {
	for len(rs) > 0 {
		n := min(len(rs), colBatch-len(p.lsel))
		for _, r := range rs[:n] {
			p.lsel = append(p.lsel, l)
			p.rsel = append(p.rsel, r)
		}
		rs = rs[n:]
		if len(p.lsel) == colBatch {
			if err := p.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flush turns the batched pairs into output rows and empties the batch.
func (p *pairSink) flush() error {
	if p.visitsPairs {
		if err := p.e.visit(p.stats, len(p.lsel)); err != nil {
			return err
		}
	}
	left, right := p.spec.left, p.spec.right
	fl, fr := filterPairs(left, right, left.Schema().NumColumns(), p.spec.residual, p.lsel, p.rsel, p.stats)
	if len(fl) > 0 {
		if err := p.e.gov.TickRows(int64(len(fl))); err != nil {
			return err
		}
		if err := p.out.AppendPairGather(left, right, fl, fr); err != nil {
			return err
		}
		if p.keepOrigin {
			p.origin = append(p.origin, fl...)
		}
	}
	p.lsel, p.rsel = p.lsel[:0], p.rsel[:0]
	return nil
}

// mergeJoin is the typed sort-merge kernel: it sorts both inputs' keys with
// storage's typed permutation kernel and merges them in the type
// storage.Compare compares them in. Bool keys merge as 0/1 integers, and an
// int64 key met by a float64 one merges as float64 on both sides, runs of
// equal keys within one input included.
func (e *Executor) mergeJoin(spec *joinSpec, stats *Stats) (*storage.Table, error) {
	ld, rd := spec.left.ColumnData(spec.lKey), spec.right.ColumnData(spec.rKey)
	pairs := e.newPairSink(spec, stats, false)
	pairs.visitsPairs = true
	defer pairs.release()
	l := mergeSide{spec.left.SortPermutation(spec.lKey), ld.Nulls}
	r := mergeSide{spec.right.SortPermutation(spec.rKey), rd.Nulls}
	// Keys derived below are derived only now, with both sorts' scratch
	// dead, so the join never holds more than sortScratchPerRow per input
	// row.
	var err error
	switch {
	case ld.Type == storage.TypeInt64 && rd.Type == storage.TypeInt64:
		err = mergeRuns(pairs, l, r, ld.Ints, rd.Ints)
	case ld.Type == storage.TypeFloat64 && rd.Type == storage.TypeFloat64:
		err = mergeRuns(pairs, l, r, ld.Floats, rd.Floats)
	case ld.Type == storage.TypeString && rd.Type == storage.TypeString:
		err = mergeRuns(pairs, l, r, ld.Strs, rd.Strs)
	case ld.Type == storage.TypeBool && rd.Type == storage.TypeBool:
		err = mergeRuns(pairs, l, r, boolInts(ld.Bools), boolInts(rd.Bools))
	case numericType(ld.Type) && numericType(rd.Type):
		err = mergeRuns(pairs, l, r, asFloats(ld), asFloats(rd))
	default:
		err = fmt.Errorf("executor: sort-merge keys of types %s and %s do not compare", ld.Type, rd.Type)
	}
	if err != nil {
		return nil, err
	}
	return pairs.out, nil
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

// asFloats reads a numeric column as float64. An int64 column sorted as
// integers stays sorted as float64, since the conversion never reverses two
// integers' order.
func asFloats(d storage.ColumnData) []float64 {
	if d.Type == storage.TypeFloat64 {
		return d.Floats
	}
	out := make([]float64, len(d.Ints))
	for i, v := range d.Ints {
		out[i] = float64(v)
	}
	return out
}

// mergeRuns merges the two sorted key sequences. Every loop iteration
// counts one comparison, the steps over leading NULL keys included; each
// pair of an equal-key run product, left-major, goes to the pair sink,
// which counts it a visited tuple and applies the residual.
func mergeRuns[K int64 | float64 | string](pairs *pairSink, left, right mergeSide, lk, rk []K) error {
	stats, lperm, rperm := pairs.stats, left.perm, right.perm
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
		switch c := cmpOrd(lv, rv); {
		case c < 0:
			li++
		case c > 0:
			ri++
		default:
			// A run ends at a NULL: only a column NaN keys left unordered has
			// one past the front.
			lEnd, rEnd := li+1, ri+1
			for lEnd < len(lperm) && !left.null(lperm[lEnd]) && cmpOrd(lk[lperm[lEnd]], lv) == 0 {
				lEnd++
			}
			for rEnd < len(rperm) && !right.null(rperm[rEnd]) && cmpOrd(rk[rperm[rEnd]], rv) == 0 {
				rEnd++
			}
			for _, l := range lperm[li:lEnd] {
				if err := pairs.add(l, rperm[ri:rEnd]); err != nil {
					return err
				}
			}
			li, ri = lEnd, rEnd
		}
	}
	return pairs.flush()
}
