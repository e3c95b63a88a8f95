// The typed kernels every operator evaluates predicates with. Predicates
// run over flat column slices, qualifying rows live in selection vectors (no
// row is materialized until the final gather), and every join hands its
// candidate (left row, right row) pairs to one pair sink that filters them
// through the residual kernels and gathers survivors column-wise. A typed
// comparison kernel switches on its operator once per call and compacts
// with no branch on the data, so a filter costs the same whatever its
// selectivity (a scan's first conjunct comparing a column with a constant
// is answered off the column's sort permutation instead: markRange).
// Selection vectors are recycled through an internal/workpool arena shared
// by every query in the process, so execution stays allocation-flat. A hash
// join derives an input's key array (float64 bits, Value.Key() strings)
// only if it reads it: a build the base column's memo serves derives none.
//
// The counters are part of the paper's reproduction (Section 8 is measured
// in executed tuples), so they count the logical work exactly: a
// conjunction evaluates each predicate only over the survivors of the
// previous one, a NULL operand is counted as a comparison and then dropped,
// OR-groups stop counting a row at its first true disjunct, and a first
// conjunct markRange answers counts each scanned row once, as a kernel would.
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
// addresses vals for each pair. Each case of its one switch on op writes
// every pair to the next free position and advances past it by 1 if the row
// is not NULL and the comparison holds, by 0 if not. A case serves an
// operator and its negation (neg): = and ≠, < and ≥, ≤ and >, in cmpOrd's
// terms, under which a float NaN is neither below nor above anything.
func selCmpConst[T int64 | float64 | string](vals []T, nulls []bool, rows []int, c T,
	op expr.CompareOp, lsel, rsel []int) int {
	out, neg := 0, negated(op)
	switch op {
	case expr.OpEQ, expr.OpNE:
		for i, r := range rows {
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out += (b2i(!(vals[r] < c))&b2i(!(vals[r] > c)) ^ neg) & notNull(nulls, r)
		}
	case expr.OpLT, expr.OpGE:
		for i, r := range rows {
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out += (b2i(vals[r] < c) ^ neg) & notNull(nulls, r)
		}
	case expr.OpLE, expr.OpGT:
		for i, r := range rows {
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out += (b2i(!(vals[r] > c)) ^ neg) & notNull(nulls, r)
		}
	}
	return out
}

// selCmpCols is the column-vs-column kernel for one ordered type, in
// selCmpConst's form.
func selCmpCols[T int64 | float64 | string](l []T, ln []bool, lrows []int, r []T, rn []bool, rrows []int,
	op expr.CompareOp, lsel, rsel []int) int {
	out, neg := 0, negated(op)
	switch op {
	case expr.OpEQ, expr.OpNE:
		for i, lr := range lrows {
			rr := rrows[i]
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out += (b2i(!(l[lr] < r[rr]))&b2i(!(l[lr] > r[rr])) ^ neg) & notNull(ln, lr) & notNull(rn, rr)
		}
	case expr.OpLT, expr.OpGE:
		for i, lr := range lrows {
			rr := rrows[i]
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out += (b2i(l[lr] < r[rr]) ^ neg) & notNull(ln, lr) & notNull(rn, rr)
		}
	case expr.OpLE, expr.OpGT:
		for i, lr := range lrows {
			rr := rrows[i]
			lsel[out], rsel[out] = lsel[i], rsel[i]
			out += (b2i(!(l[lr] > r[rr])) ^ neg) & notNull(ln, lr) & notNull(rn, rr)
		}
	}
	return out
}

// negated is 1 for ≠, ≥ and >, the negations of =, < and ≤, else 0.
func negated(op expr.CompareOp) int {
	return b2i(op == expr.OpNE || op == expr.OpGE || op == expr.OpGT)
}

// b2i is 1 for true and 0 for false, set without a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// notNull is 1 unless nulls flags row r. Whether nulls is nil is the same
// for every row, so that test never mispredicts.
func notNull(nulls []bool, r int) int {
	if nulls == nil {
		return 1
	}
	return b2i(!nulls[r])
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

// bindHashKeys picks the key representation for one hash join (spec.rep)
// and binds spec.join to the typed kernel, for a partitioned join or not.
// Keys of one specializable type hash natively, and an int64 key meets a
// float64 one as float64 bits, as storage.Compare meets them; bool keys
// hash their Value.Key() strings, which group exactly the values Compare
// calls equal.
func (e *Executor) bindHashKeys(spec *hashSpec, partition bool) {
	ltype := spec.left.Schema().Column(spec.lKey).Type
	rtype := spec.right.Schema().Column(spec.rKey).Type
	switch {
	case ltype != rtype && numericType(ltype) && numericType(rtype):
		spec.numeric = true
		bindKeys(e, spec, repFloat, floatKeys, partition)
	case ltype != rtype || ltype == storage.TypeBool:
		bindKeys(e, spec, repBoxed, boxedKeys, partition)
	case ltype == storage.TypeInt64:
		bindKeys(e, spec, repNative, intKeys, partition)
	case ltype == storage.TypeFloat64:
		bindKeys(e, spec, repFloat, floatKeys, partition)
	default:
		bindKeys(e, spec, repNative, strKeys, partition)
	}
}

// intKeys and strKeys are an int64 or a string column's own values.
func intKeys(t *storage.Table, col int) []int64  { return t.ColumnData(col).Ints }
func strKeys(t *storage.Table, col int) []string { return t.ColumnData(col).Strs }

// keyRep names how a hash join renders one column's keys. It keys the
// memoized build table of an unfiltered base column (storage.Table.Memo),
// since one int64 column hashes natively against int64 and as float64 bits
// against float64. With hashSeed fixed per process, a column and its
// representation fix the table.
type keyRep uint8

const (
	repNative keyRep = iota // int64 or string keys as stored
	repFloat                // float64 bits (floatKeys)
	repBoxed                // Value.Key() strings (boxedKeys)
)

// bindKeys binds spec.join to the typed kernel over the keys keysOf renders
// under rep. A partitioned join reads both inputs' keys in every partition,
// so it derives them once, here. A one-partition join derives its probe
// side's as it probes and its build side's only if it builds, so a build
// the memo serves derives none.
func bindKeys[K comparable](e *Executor, spec *hashSpec, rep keyRep, keysOf func(t *storage.Table, col int) []K, partition bool) {
	spec.rep = rep
	var lk, rk []K
	if partition {
		lk, rk = keysOf(spec.left, spec.lKey), keysOf(spec.right, spec.rKey)
	}
	spec.join = func(rrows, lrows []int, stats *Stats) (*pairSink, error) {
		return colJoin(e, spec.joinSpec, rep, keysOf, lk, rk, rrows, lrows, stats)
	}
}

// keyBytes is the scratch rendering column col of t under rep derives: a
// float64 bit pattern per row, or a Value.Key() string per row, its header
// and its bytes; keys read as stored derive nothing.
func keyBytes(rep keyRep, t *storage.Table, col int) int64 {
	switch rep {
	case repFloat:
		return int64(8 * t.NumRows())
	case repBoxed:
		size := int64(16 * t.NumRows())
		for r := range t.NumRows() {
			if v := t.Value(r, col); !v.IsNull() {
				size += int64(len(v.Key()))
			}
		}
		return size
	}
	return 0
}

// floatKeys renders a numeric column as hashable float64 bit patterns
// (floatBits).
func floatKeys(t *storage.Table, col int) []uint64 {
	d := t.ColumnData(col)
	out := make([]uint64, t.NumRows())
	for i := range out {
		out[i] = floatBits(numericAt(d, i))
	}
	return out
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
func boxedKeys(t *storage.Table, col int) []string {
	out := make([]string, t.NumRows())
	for r := range out {
		if v := t.Value(r, col); !v.IsNull() {
			out[r] = v.Key()
		}
	}
	return out
}

// buildTable returns the flat hash table (hashTable, dense or hashed) over
// the right rows named by rrows (nil: every right row): over the keys rk a
// partitioned join derived, or over every row's keys keysOf derives. A
// build over every row of an unfiltered base-table scan (a view) is built
// once per base column and key representation and shared with every later
// join of that column (storage.Table.Memo), and only that first build
// derives keys; any other build — a filtered scan, an operator's output, a
// Grace partition — is the join's own.
func buildTable[K comparable](spec *joinSpec, rep keyRep, keysOf func(*storage.Table, int) []K, rk []K, rrows []int) (hashTable[K], error) {
	if builds := rowCount(rrows, spec.right.NumRows()); builds > math.MaxInt32 {
		return hashTable[K]{}, fmt.Errorf("executor: a hash-join build of %d rows exceeds the table's 2^31-row limit", builds)
	}
	rn := spec.right.ColumnData(spec.rKey).Nulls
	if rrows != nil {
		return newHashTable(rk, rn, rrows, hashSeed), nil
	}
	return spec.right.Memo(spec.rKey, rep, func() any {
		return newHashTable(keysOf(spec.right, spec.rKey), rn, nil, hashSeed)
	}).(hashTable[K]), nil
}

// colJoin is the typed build → probe → pair-gather kernel for one
// partition: build the table over the right rows named by rrows
// (buildTable), probe it with the left rows named by lrows (nil: every left
// row) in order, a block of hashes (or dense offsets) at a time, and hand
// each probe row's matching build rows, ascending, to the pair sink. With a
// probe-row list the sink also reports the left row behind each output row.
// A counting sink on a dense table gets only each block's sum of run
// lengths, added up with no branch; on a hashed one add counts each run's
// length.
func colJoin[K comparable](e *Executor, spec *joinSpec, rep keyRep, keysOf func(*storage.Table, int) []K,
	lk, rk []K, rrows, lrows []int, stats *Stats) (*pairSink, error) {
	table, err := buildTable(spec, rep, keysOf, rk, rrows)
	if err != nil {
		return nil, err
	}
	if lk == nil {
		lk = keysOf(spec.left, spec.lKey)
	}
	ln := spec.left.ColumnData(spec.lKey).Nulls
	pairs := e.newPairSink(spec, stats, lrows != nil)
	defer pairs.release()
	var hs [hashBlock]uint64
	for b, n := 0, rowCount(lrows, len(lk)); b < n; b += hashBlock {
		block := hs[:min(hashBlock, n-b)]
		table.hashKeys(lk, lrows, b, block)
		if pairs.counting && table.starts != nil {
			if err := pairs.count(table.matches(ln, lrows, b, block)); err != nil {
				return nil, err
			}
			continue
		}
		for j, h := range block {
			l := rowAt(lrows, b+j)
			if ln != nil && ln[l] {
				continue
			}
			if lo, hi := table.run(lk[l], h); lo < hi {
				if err := pairs.add(l, table.rows[lo:hi]); err != nil {
					return nil, err
				}
			}
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
// to the row budget and their live columns gathered into out.
//
// A join whose output carries no column and has no residual, as at a
// COUNT(*) root (joinSpec.counts), gets a counting sink: it forms no pair
// and takes no pair arena. The join hands it numbers of pairs (count), or
// a nested-loops join its candidates and how many of them its bound
// residual kept (countWhere), and it flushes where the pairs' batches would
// have flushed, so its row and tuple charges come in the same chunks.
type pairSink struct {
	e     *Executor
	spec  *joinSpec
	stats *Stats
	out   *storage.Table
	// origin, kept only when asked for, is the left row behind each row of
	// out, which the partition policy merges partition outputs back by. A
	// counting sink keeps none.
	origin      []int
	keepOrigin  bool
	visitsPairs bool // each pair counts one visited tuple (sort-merge)
	counting    bool
	pending     int // a counting sink's batch of candidate pairs
	kept        int // the pairs of the batch that survive
	lsel, rsel  []int
}

// pairArenaBytes is the ledger charge for one sink's two pair batches: the
// capacity it asks the arena for, whatever capacity the arena hands back.
const pairArenaBytes = 8 * 2 * colBatch

func (e *Executor) newPairSink(spec *joinSpec, stats *Stats, keepOrigin bool) *pairSink {
	p := &pairSink{e: e, spec: spec, stats: stats, counting: spec.counts(),
		out: storage.NewLiveTable("join", spec.outSchema, spec.live)}
	if !p.counting {
		p.keepOrigin, p.lsel, p.rsel = keepOrigin, selArena.Get(colBatch), selArena.Get(colBatch)
		e.gov.ChargeBytes(pairArenaBytes) // pair-batch arena scratch, released with the sink
	}
	return p
}

func (p *pairSink) release() {
	if !p.counting {
		selArena.Put(p.lsel)
		selArena.Put(p.rsel)
		p.e.gov.ReleaseBytes(pairArenaBytes)
	}
}

// add queues the pairs of left row l with each of the right rows rs, in
// order, flushing whenever the batch fills. rs is only read: it may be a
// run of a memoized hash build or sort permutation other queries share.
func (p *pairSink) add(l int, rs []int) error {
	if p.counting {
		return p.count(len(rs))
	}
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

// count queues n pairs on a counting sink, flushing whenever the batch
// fills, as add would.
func (p *pairSink) count(n int) error {
	for n > 0 {
		k := min(n, colBatch-p.pending)
		if err := p.tally(k, k); err != nil {
			return err
		}
		n -= k
	}
	return nil
}

// countWhere queues on a counting sink the pairs of one outer row with the
// inner rows rs of t, of which it keeps those conj — the residual bound to
// the outer row (bindOuter) — holds for, compacting rs. It cuts rs where
// the pair batches end, so each batch's survivors are charged where a
// paired sink would charge them, after the same comparisons.
func (p *pairSink) countWhere(t *storage.Table, conj []optimizer.Cond, rs []int) error {
	for len(rs) > 0 {
		n := min(len(rs), colBatch-p.pending)
		kept, _ := filterPairs(t, t, t.Schema().NumColumns(), conj, rs[:n], rs[:n], p.stats)
		if err := p.tally(n, len(kept)); err != nil {
			return err
		}
		rs = rs[n:]
	}
	return nil
}

// tally queues n candidate pairs, no more than fill the batch, of which
// kept survive, flushing if the batch is full.
func (p *pairSink) tally(n, kept int) error {
	p.pending += n
	p.kept += kept
	if p.pending == colBatch {
		return p.flush()
	}
	return nil
}

// flush turns the batched pairs into output rows and empties the batch.
func (p *pairSink) flush() error {
	n := len(p.lsel)
	if p.counting {
		n = p.pending
	}
	if p.visitsPairs {
		if err := p.e.visit(p.stats, n); err != nil {
			return err
		}
	}
	if p.counting {
		kept := p.kept
		p.pending, p.kept = 0, 0
		if err := p.e.gov.TickRows(int64(kept)); err != nil {
			return err
		}
		return p.out.AppendCount(kept)
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
// key column's NULL flags (nil when it has none). perm may be a base
// column's memoized permutation, shared with other queries: it is only read.
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
// which counts it a visited tuple and applies the residual. A counting sink
// gets each run product's size once.
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
			if pairs.counting {
				if err := pairs.count((lEnd - li) * (rEnd - ri)); err != nil {
					return err
				}
				li, ri = lEnd, rEnd
				continue
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
