package storage

import (
	"fmt"
	"math"
	"slices"
)

// ColumnData is a read-only view of one column's typed storage. Exactly one
// payload slice is non-nil, selected by Type; Nulls is nil when the column
// holds no NULLs. The vectorized executor reads these views directly so its
// kernels run over flat slices instead of boxed Values. Callers must not
// mutate the slices — they alias the table's live storage.
type ColumnData struct {
	Type   Type
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	Nulls  []bool
}

// ColumnData returns the typed view of column col.
func (t *Table) ColumnData(col int) ColumnData {
	c := t.cols[col]
	return ColumnData{
		Type:   c.typ,
		Ints:   c.ints,
		Floats: c.floats,
		Strs:   c.strs,
		Bools:  c.bools,
		Nulls:  c.nulls,
	}
}

// Null reports whether row i of the view is NULL.
func (d ColumnData) Null(i int) bool { return d.Nulls != nil && d.Nulls[i] }

// Value boxes row i of the view. Vectorized kernels fall back to it for the
// type combinations they do not specialize.
func (d ColumnData) Value(i int) Value {
	if d.Null(i) {
		return Null(d.Type)
	}
	switch d.Type {
	case TypeInt64:
		return Int64(d.Ints[i])
	case TypeFloat64:
		return Float64(d.Floats[i])
	case TypeString:
		return String64(d.Strs[i])
	case TypeBool:
		return Bool(d.Bools[i])
	default:
		panic("storage: Value from invalid column view")
	}
}

// KeyHash hashes the non-NULL value at row i so that rows whose Value.Key()
// strings are equal hash alike, without boxing or allocating: -0.0 hashes as
// 0.0, as Key() renders it. Values of different types may collide or not;
// their Key() strings never match anyway.
func (d ColumnData) KeyHash(i int) uint64 {
	switch d.Type {
	case TypeInt64:
		return uint64(d.Ints[i])
	case TypeFloat64:
		f := d.Floats[i]
		if f == 0 {
			f = 0
		}
		return math.Float64bits(f)
	case TypeBool:
		if d.Bools[i] {
			return 1
		}
		return 0
	default:
		h := uint64(14695981039346656037) // FNV-1a
		for _, b := range []byte(d.Strs[i]) {
			h = (h ^ uint64(b)) * 1099511628211
		}
		return h
	}
}

// gather appends src[r] for every r of sel to dst, reserving the room once
// and writing by index instead of growing value by value.
func gather[T any](dst, src []T, sel []int) []T {
	n := len(dst)
	dst = slices.Grow(dst, len(sel))[:n+len(sel)]
	for i, r := range sel {
		dst[n+i] = src[r]
	}
	return dst
}

// appendGather appends src's values at the selected row indices, in
// selection order. Like AppendRange, the destination's nulls slice is
// materialized as soon as the source has one.
func (c *column) appendGather(src *column, sel []int) {
	if c.nulls == nil && src.nulls != nil {
		c.nulls = make([]bool, c.length(), c.length()+len(sel))
	}
	if c.nulls != nil {
		if src.nulls != nil {
			c.nulls = gather(c.nulls, src.nulls, sel)
		} else {
			c.nulls = append(c.nulls, make([]bool, len(sel))...)
		}
	}
	switch c.typ {
	case TypeInt64:
		c.ints = gather(c.ints, src.ints, sel)
	case TypeFloat64:
		c.floats = gather(c.floats, src.floats, sel)
	case TypeString:
		c.strs = gather(c.strs, src.strs, sel)
	case TypeBool:
		c.bools = gather(c.bools, src.bools, sel)
	}
}

// AppendGather appends the rows of src selected by sel (in selection order)
// by gathering column storage directly, without boxing values. The schemas
// must have the same column count and types (names may differ). It is the
// sink of the vectorized scan: a selection vector over a base chunk turns
// into output rows only here.
func (t *Table) AppendGather(src *Table, sel []int) error {
	if t.view {
		return t.errView()
	}
	if err := src.sameTypes(t.schema, "gather"); err != nil {
		return err
	}
	for i, c := range t.cols {
		c.appendGather(src.cols[i], sel)
	}
	t.rows += len(sel)
	return nil
}

// AppendPairGather appends joined rows formed by pairing left[lsel[i]] with
// right[rsel[i]]. The receiver's schema must be the concatenation of left's
// and right's column types (names may differ). lsel and rsel must have equal
// length. It is the sink of the vectorized hash join: matched (left, right)
// index pairs turn into output rows column by column.
func (t *Table) AppendPairGather(left, right *Table, lsel, rsel []int) error {
	if t.view {
		return t.errView()
	}
	if len(lsel) != len(rsel) {
		return fmt.Errorf("storage: pair gather with %d left and %d right indices", len(lsel), len(rsel))
	}
	lcols := left.schema.NumColumns()
	if lcols+right.schema.NumColumns() != t.schema.NumColumns() {
		return fmt.Errorf("storage: pair gather %d+%d columns into %d-column table",
			lcols, right.schema.NumColumns(), t.schema.NumColumns())
	}
	for i, c := range t.cols {
		var st Type
		if i < lcols {
			st = left.cols[i].typ
		} else {
			st = right.cols[i-lcols].typ
		}
		if st != c.typ {
			return fmt.Errorf("storage: column %d type mismatch: %s vs %s", i, st, c.typ)
		}
	}
	for i, c := range t.cols {
		if i < lcols {
			c.appendGather(left.cols[i], lsel)
		} else {
			c.appendGather(right.cols[i-lcols], rsel)
		}
	}
	t.rows += len(lsel)
	return nil
}
