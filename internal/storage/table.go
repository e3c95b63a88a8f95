package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// column is the typed column-major storage for one column. Exactly one of
// the payload slices is used, selected by typ. nulls is nil until the first
// NULL is appended.
type column struct {
	typ    Type
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	nulls  []bool
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

func (c *column) append(v Value) error {
	if v.Type() != c.typ {
		if v.IsNull() {
			// Permit NULLs of any declared type slot; store as this column's type.
			v = Null(c.typ)
		} else {
			return fmt.Errorf("storage: cannot append %s value to %s column", v.Type(), c.typ)
		}
	}
	if v.IsNull() {
		if c.nulls == nil {
			c.nulls = make([]bool, c.length())
		}
		c.nulls = append(c.nulls, true)
	} else if c.nulls != nil {
		c.nulls = append(c.nulls, false)
	}
	switch c.typ {
	case TypeInt64:
		if v.IsNull() {
			c.ints = append(c.ints, 0)
		} else {
			c.ints = append(c.ints, v.i)
		}
	case TypeFloat64:
		if v.IsNull() {
			c.floats = append(c.floats, 0)
		} else {
			c.floats = append(c.floats, v.f)
		}
	case TypeString:
		if v.IsNull() {
			c.strs = append(c.strs, "")
		} else {
			c.strs = append(c.strs, v.s)
		}
	case TypeBool:
		if v.IsNull() {
			c.bools = append(c.bools, false)
		} else {
			c.bools = append(c.bools, v.b)
		}
	default:
		return fmt.Errorf("storage: append to invalid column type")
	}
	return nil
}

func (c *column) value(i int) Value {
	if c.nulls != nil && c.nulls[i] {
		return Null(c.typ)
	}
	switch c.typ {
	case TypeInt64:
		return Int64(c.ints[i])
	case TypeFloat64:
		return Float64(c.floats[i])
	case TypeString:
		return String64(c.strs[i])
	case TypeBool:
		return Bool(c.bools[i])
	default:
		panic("storage: value from invalid column")
	}
}

// Table is an append-only, column-major in-memory table.
//
// Tables are not safe for concurrent mutation; concurrent reads are safe
// once loading is complete.
type Table struct {
	name   string
	schema *Schema
	cols   []*column
	rows   int
	view   bool // shares another table's columns; every append fails
}

// errView is what every append to a read-only view returns.
func (t *Table) errView() error {
	return fmt.Errorf("storage: table %s is a read-only view", t.name)
}

// NewTable creates an empty table with the given name and schema.
func NewTable(name string, schema *Schema) *Table {
	cols := make([]*column, schema.NumColumns())
	for i := range cols {
		cols[i] = newColumn(schema.Column(i).Type)
	}
	return &Table{name: name, schema: schema, cols: cols}
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
		if err := t.cols[i].append(v); err != nil {
			// Roll back the columns already appended for this row so the table
			// stays rectangular.
			for j := 0; j < i; j++ {
				t.cols[j].truncate(t.rows)
			}
			return fmt.Errorf("storage: table %s column %s: %w", t.name, t.schema.Column(i).Name, err)
		}
	}
	t.rows++
	return nil
}

func (c *column) truncate(n int) {
	switch c.typ {
	case TypeInt64:
		c.ints = c.ints[:n]
	case TypeFloat64:
		c.floats = c.floats[:n]
	case TypeString:
		c.strs = c.strs[:n]
	case TypeBool:
		c.bools = c.bools[:n]
	}
	if c.nulls != nil {
		c.nulls = c.nulls[:n]
	}
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
	return t.cols[col].value(row)
}

// Row materializes row i as a slice of values. The slice is freshly
// allocated on each call.
func (t *Table) Row(i int) []Value {
	out := make([]Value, len(t.cols))
	for c := range t.cols {
		out[c] = t.cols[c].value(i)
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
	c := t.cols[col]
	sort.SliceStable(idx, func(a, b int) bool {
		return Compare(c.value(idx[a]), c.value(idx[b])) < 0
	})
	return idx
}

// sameTypes checks that schema s has exactly t's column types, in order;
// names may differ. op names what needs them to match.
func (t *Table) sameTypes(s *Schema, op string) error {
	if s.NumColumns() != len(t.cols) {
		return fmt.Errorf("storage: %s of a %d-column table as %d columns", op, len(t.cols), s.NumColumns())
	}
	for i, c := range t.cols {
		if st := s.Column(i).Type; st != c.typ {
			return fmt.Errorf("storage: %s: column %d type mismatch: %s vs %s", op, i, c.typ, st)
		}
	}
	return nil
}

// View returns t's rows as a read-only table under another name and a
// schema of the same column types. The view shares t's column storage —
// nothing is copied — and every append to it returns an error, so it can
// never write through to t. Rows appended to t afterwards are not in it.
func (t *Table) View(name string, schema *Schema) (*Table, error) {
	if err := t.sameTypes(schema, "view"); err != nil {
		return nil, err
	}
	cols := make([]*column, len(t.cols))
	for i, c := range t.cols {
		n := t.rows
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
		cols[i] = v
	}
	return &Table{name: name, schema: schema, cols: cols, rows: t.rows, view: true}, nil
}

// AppendRange appends rows [start, end) of src to t by copying slices of
// the column storage. The schemas must have the same column count and
// types (names may differ). It is how partition outputs merge back into
// one table.
func (t *Table) AppendRange(src *Table, start, end int) error {
	if t.view {
		return t.errView()
	}
	if err := src.sameTypes(t.schema, "append"); err != nil {
		return err
	}
	n := end - start
	for i, c := range t.cols {
		sc := src.cols[i]
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

// Reserve makes room for n more rows, so that appends up to that many do
// not regrow the column storage. Operators call it where they know their
// output size before they produce it.
func (t *Table) Reserve(n int) {
	for _, c := range t.cols {
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

// Format renders up to max rows as an aligned text table for debugging and
// example programs. If max <= 0 all rows are rendered.
func (t *Table) Format(max int) string {
	if max <= 0 || max > t.rows {
		max = t.rows
	}
	var b strings.Builder
	for i, c := range t.schema.Columns() {
		if i > 0 {
			b.WriteByte('\t')
		}
		b.WriteString(c.Name)
	}
	b.WriteByte('\n')
	for r := 0; r < max; r++ {
		for c := 0; c < t.schema.NumColumns(); c++ {
			if c > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(t.cols[c].value(r).String())
		}
		b.WriteByte('\n')
	}
	if max < t.rows {
		fmt.Fprintf(&b, "... (%d more rows)\n", t.rows-max)
	}
	return b.String()
}
