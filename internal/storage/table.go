package storage

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
)

// column is the typed column-major storage for one column. Exactly one of
// the payload slices is used, selected by typ. nulls is nil until the first
// NULL is appended. memo is nil until the column is first viewed; a view
// column holds its base column's.
type column struct {
	typ    Type
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool
	memo   atomic.Pointer[memo]
}

func newColumn(t Type) *column { return &column{typ: t} }

func (c *column) length() int {
	switch c.typ {
	case TypeInt64:
		return len(c.ints)
	case TypeFloat64:
		return len(c.floats)
	case TypeString:
		return len(c.strs)
	case TypeBool:
		return len(c.bools)
	default:
		return 0
	}
}

// append appends v, whose type AppendRow has checked, to c.
func (c *column) append(v Value) {
	if v.IsNull() {
		if c.nulls == nil {
			c.nulls = make([]bool, c.length())
		}
		c.nulls = append(c.nulls, true)
	} else if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	switch c.typ { // a NULL's payload is the zero value of every type
	case TypeInt64:
		c.ints = append(c.ints, v.i)
	case TypeFloat64:
		c.floats = append(c.floats, v.f)
	case TypeString:
		c.strs = append(c.strs, v.s)
	case TypeBool:
		c.bools = append(c.bools, v.b)
	}
}

// Table is an append-only, column-major in-memory table.
//
// A table may carry only some of its schema's columns: the live ones
// (NewLiveTable). A dead column keeps its place in the schema, so every
// ordinal stays valid, but holds nothing: gathers, range appends and
// Reserve skip it, it costs nothing on the byte ledger (ApproxBytes), and
// reading it panics with a message naming it. AppendRow needs every column
// live.
//
// Tables are not safe for concurrent mutation; concurrent reads are safe
// once loading is complete. The one field written after loading is each
// column's memo of derived join structures (Memo), built lazily and
// published atomically, so concurrent reads stay safe.
type Table struct {
	name   string
	schema *Schema
	cols   []*column // nil for a dead column
	rows   int
	view   bool // shares another table's columns; every append fails
}

// errView is what every append to a read-only view returns.
func (t *Table) errView() error {
	return fmt.Errorf("storage: table %s is a read-only view", t.name)
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema *Schema) *Table {
	return NewLiveTable(name, schema, nil)
}

// NewLiveTable creates an empty table with the given name and schema whose
// live columns are those live flags; nil means every column.
func NewLiveTable(name string, schema *Schema, live []bool) *Table {
	cols := make([]*column, schema.NumColumns())
	for i := range cols {
		if live == nil || live[i] {
			cols[i] = newColumn(schema.Column(i).Type)
		}
	}
	return &Table{name: name, schema: schema, cols: cols}
}

// IsView reports whether t is a read-only view (View), whose builds over
// every row of a column are shared through Memo.
func (t *Table) IsView() bool { return t.view }

// Live reports whether column col is carried (NewLiveTable).
func (t *Table) Live(col int) bool { return t.cols[col] != nil }

// col returns column i, which must be live.
func (t *Table) col(i int) *column {
	if c := t.cols[i]; c != nil {
		return c
	}
	panic(fmt.Sprintf("storage: column %s of table %s is not live", t.schema.Column(i).Name, t.name))
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *Schema { return t.schema }

// NumRows returns the number of rows currently stored.
func (t *Table) NumRows() int { return t.rows }

// AppendRow appends one row. The number and types of values must match the
// schema.
func (t *Table) AppendRow(vals ...Value) error {
	if t.view {
		return t.errView()
	}
	if len(vals) != len(t.cols) {
		return fmt.Errorf("storage: table %s: row has %d values, schema has %d columns",
			t.name, len(vals), len(t.cols))
	}
	for i, v := range vals {
		if ct := t.cols[i].typ; v.Type() != ct && !v.IsNull() { // a NULL of any type fits any slot
			return fmt.Errorf("storage: table %s column %s: storage: cannot append %s value to %s column",
				t.name, t.schema.Column(i).Name, v.Type(), ct)
		}
	}
	for i, v := range vals {
		t.cols[i].append(v)
	}
	t.rows++
	return nil
}

// MustAppendRow appends one row and panics on error. Intended for tests and
// generators that construct rows from the table's own schema.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// Value returns the value at the given row and column ordinals.
func (t *Table) Value(row, col int) Value {
	return t.ColumnData(col).Value(row)
}

// Row materializes row i as a slice of values. The slice is freshly
// allocated on each call.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.Value(i, c)
	}
	return out
}

// SortedIndices returns row indices of the table ordered by the given
// column (NULLs first). The table itself is not modified. It is the boxed
// reference SortPermutation, the typed kernel, is tested against, and the
// order it falls back to for a float64 column holding a NaN.
func (t *Table) SortedIndices(col int) []int {
	idx := make([]int, t.rows)
	for i := range idx {
		idx[i] = i
	}
	d := t.ColumnData(col)
	sort.SliceStable(idx, func(a, b int) bool {
		return Compare(d.Value(idx[a]), d.Value(idx[b])) < 0
	})
	return idx
}

// sameTypes checks that schema s has exactly t's column types, in order;
// names may differ. op names what needs them to match.
func (t *Table) sameTypes(s *Schema, op string) error {
	if s.NumColumns() != len(t.cols) {
		return fmt.Errorf("storage: %s of a %d-column table as %d columns", op, len(t.cols), s.NumColumns())
	}
	for i := range t.cols {
		if tt, st := t.schema.Column(i).Type, s.Column(i).Type; st != tt {
			return fmt.Errorf("storage: %s: column %d type mismatch: %s vs %s", op, i, tt, st)
		}
	}
	return nil
}

// View returns t's rows as a read-only table under another name and a
// schema of the same column types, exposing only the columns live flags
// (nil: every column). The view shares t's column storage — nothing is
// copied — and every append to it returns an error, so it can never write
// through to t. Rows appended to t afterwards are not in it. Every view of
// t shares t's memo of derived join structures (Memo).
func (t *Table) View(name string, schema *Schema, live []bool) (*Table, error) {
	if err := t.sameTypes(schema, "view"); err != nil {
		return nil, err
	}
	cols := make([]*column, len(t.cols))
	for i := range t.cols {
		if live != nil && !live[i] {
			continue
		}
		c, n := t.col(i), t.rows
		v := &column{typ: c.typ}
		switch c.typ {
		case TypeInt64:
			v.ints = c.ints[:n:n]
		case TypeFloat64:
			v.floats = c.floats[:n:n]
		case TypeString:
			v.strs = c.strs[:n:n]
		case TypeBool:
			v.bools = c.bools[:n:n]
		}
		if c.nulls != nil {
			v.nulls = c.nulls[:n:n]
		}
		v.memo.Store(c.sharedMemo())
		cols[i] = v
	}
	return &Table{name: name, schema: schema, cols: cols, rows: t.rows, view: true}, nil
}

// AppendRange appends rows [start, end) of src to t by copying slices of
// the column storage. The schemas must have the same column count and
// types (names may differ). Only t's live columns are copied, and src must
// carry each of them. It is how partition outputs merge back into one
// table.
func (t *Table) AppendRange(src *Table, start, end int) error {
	if t.view {
		return t.errView()
	}
	if err := src.sameTypes(t.schema, "append"); err != nil {
		return err
	}
	n := end - start
	for i, c := range t.cols {
		if c == nil {
			continue
		}
		sc := src.col(i)
		if c.nulls == nil && sc.nulls != nil {
			c.nulls = make([]bool, c.length(), c.length()+n)
		}
		if c.nulls != nil {
			if sc.nulls != nil {
				c.nulls = append(c.nulls, sc.nulls[start:end]...)
			} else {
				c.nulls = append(c.nulls, make([]bool, n)...)
			}
		}
		switch c.typ {
		case TypeInt64:
			c.ints = append(c.ints, sc.ints[start:end]...)
		case TypeFloat64:
			c.floats = append(c.floats, sc.floats[start:end]...)
		case TypeString:
			c.strs = append(c.strs, sc.strs[start:end]...)
		case TypeBool:
			c.bools = append(c.bools, sc.bools[start:end]...)
		}
	}
	t.rows += n
	return nil
}

// AppendCount appends n rows to a table that carries no column: rows that
// are counted, never gathered, as at a COUNT(*) join root.
func (t *Table) AppendCount(n int) error {
	if t.view {
		return t.errView()
	}
	if slices.ContainsFunc(t.cols, func(c *column) bool { return c != nil }) {
		return fmt.Errorf("storage: table %s: counted rows need every column dead", t.name)
	}
	t.rows += n
	return nil
}

// Reserve makes room for n more rows in every live column, so that appends
// up to that many do not regrow the column storage. Operators call it where
// they know their output size before they produce it.
func (t *Table) Reserve(n int) {
	for _, c := range t.cols {
		if c == nil {
			continue
		}
		switch c.typ {
		case TypeInt64:
			c.ints = slices.Grow(c.ints, n)
		case TypeFloat64:
			c.floats = slices.Grow(c.floats, n)
		case TypeString:
			c.strs = slices.Grow(c.strs, n)
		case TypeBool:
			c.bools = slices.Grow(c.bools, n)
		}
		if c.nulls != nil {
			c.nulls = slices.Grow(c.nulls, n)
		}
	}
}

// String renders a small human-readable summary (name, schema, row count).
func (t *Table) String() string {
	return fmt.Sprintf("%s%s [%d rows]", t.name, t.schema, t.rows)
}
