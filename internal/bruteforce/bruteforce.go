// Package bruteforce evaluates a conjunctive query by its definition, as the
// ground truth the executor's differential tests hold every plan to: one
// nested loop per FROM item over rows of boxed values, each predicate tested
// as soon as the last table it names is bound. There is no plan, no compiled
// predicate, no kernel and no governor; nothing is shared with the engine it
// checks except the value type and storage.Compare, which define what a
// comparison means.
//
// Results are compared as multisets — a plan may emit the rows in any order
// — through Multiset, an order-insensitive fingerprint, so the evaluator
// holds no result in memory however many rows it produces.
package bruteforce

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
)

// comparison is one predicate over a result row: column l against column r,
// or against c when r < 0.
type comparison struct {
	l, r int
	op   expr.CompareOp
	c    storage.Value
}

// holds applies SQL semantics: a NULL operand makes the comparison false.
func (p comparison) holds(row []storage.Value) bool {
	l, r := row[p.l], p.c
	if p.r >= 0 {
		r = row[p.r]
	}
	return !l.IsNull() && !r.IsNull() && p.op.Holds(storage.Compare(l, r))
}

// Of evaluates the query over the catalog's data and returns the fingerprint
// of its result, whose rows are the FROM items' columns concatenated in FROM
// order, with those columns' names ("alias.column").
func Of(cat *catalog.Catalog, tabs []cardest.TableRef, preds []expr.Predicate, disjs []expr.Disjunction) (Multiset, []string, error) {
	tables := make([][][]storage.Value, len(tabs)) // per FROM item, its rows
	var names []string
	offset := []int{0} // the FROM items' first columns in a result row
	for i, ref := range tabs {
		data := cat.Data(ref.Table)
		if data == nil {
			return Multiset{}, nil, fmt.Errorf("bruteforce: no data for table %q", ref.Table)
		}
		for c := 0; c < data.Schema().NumColumns(); c++ {
			names = append(names, ref.Name()+"."+data.Schema().Column(c).Name)
		}
		offset = append(offset, len(names))
		for r := 0; r < data.NumRows(); r++ {
			tables[i] = append(tables[i], data.Row(r))
		}
	}
	// checks[d] are tested once FROM item d, the last one they name, is
	// bound. A check passes when any of its comparisons holds: a conjunct is
	// a check of one comparison, an OR-group a check of several.
	checks := make([][][]comparison, len(tabs))
	resolve := func(ref expr.ColumnRef) (int, error) {
		for i, name := range names {
			if strings.EqualFold(name, ref.Table+"."+ref.Column) {
				return i, nil
			}
		}
		return 0, fmt.Errorf("bruteforce: cannot resolve %s", ref)
	}
	add := func(ps ...expr.Predicate) error {
		var check []comparison
		last := 0
		for _, p := range ps {
			cmp := comparison{r: -1, op: p.Op, c: p.Const}
			var err error
			if cmp.l, err = resolve(p.Left); err != nil {
				return err
			}
			if p.RightIsColumn {
				if cmp.r, err = resolve(p.Right); err != nil {
					return err
				}
			}
			last = max(last, cmp.l, cmp.r)
			check = append(check, cmp)
		}
		d := sort.SearchInts(offset, last+1) - 1
		checks[d] = append(checks[d], check)
		return nil
	}
	for _, p := range preds {
		if err := add(p); err != nil {
			return Multiset{}, nil, err
		}
	}
	for _, d := range disjs {
		if err := add(d.Preds...); err != nil {
			return Multiset{}, nil, err
		}
	}

	var m Multiset
	row := make([]storage.Value, len(names))
	var loop func(d int)
	loop = func(d int) {
		if d == len(tables) {
			m.Add(row)
			return
		}
	rows:
		for _, r := range tables[d] {
			copy(row[offset[d]:], r)
		checks:
			for _, check := range checks[d] {
				for _, p := range check {
					if p.holds(row) {
						continue checks
					}
				}
				continue rows
			}
			loop(d + 1)
		}
	}
	loop(0)
	return m, names, nil
}

// Multiset fingerprints a multiset of rows: how many there are and the
// wrapping sum of a 64-bit hash of each. Two multisets that differ in any
// row, or in how often one occurs, get different fingerprints except with
// probability about 2⁻⁶⁴; the order rows are added in does not matter.
type Multiset struct {
	Rows int64
	Sum  uint64
}

// Add counts one row.
func (m *Multiset) Add(row []storage.Value) {
	var h uint64
	for _, v := range row {
		tag, x := uint64(v.Type())<<1, uint64(0)
		switch {
		case v.IsNull():
			tag |= 1
		case v.Type() == storage.TypeInt64:
			x = uint64(v.Int())
		case v.Type() == storage.TypeFloat64:
			x = math.Float64bits(v.Float())
		case v.Type() == storage.TypeBool:
			if v.BoolVal() {
				x = 1
			}
		default: // FNV-1a
			x = 14695981039346656037
			for _, b := range []byte(v.Str()) {
				x = (x ^ uint64(b)) * 1099511628211
			}
		}
		h = mix(mix(h^tag) ^ x)
	}
	m.Rows++
	m.Sum += h
}

// AddTable counts every row of an executor result, reading its columns in
// the order names gives them (matched case-insensitively), so a plan that
// joined the tables in another order fingerprints like Of's rows.
func (m *Multiset) AddTable(t *storage.Table, names []string) error {
	if len(names) != t.Schema().NumColumns() {
		return fmt.Errorf("bruteforce: result has %d columns, want %d", t.Schema().NumColumns(), len(names))
	}
	cols := make([]int, len(names))
	for i, name := range names {
		if cols[i] = t.Schema().ColumnIndex(name); cols[i] < 0 {
			return fmt.Errorf("bruteforce: result has no column %s", name)
		}
	}
	row := make([]storage.Value, len(cols))
	for r := 0; r < t.NumRows(); r++ {
		for i, c := range cols {
			row[i] = t.Value(r, c)
		}
		m.Add(row)
	}
	return nil
}

// mix is splitmix64's finalizer: every input bit reaches every output bit.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	return h ^ h>>31
}
