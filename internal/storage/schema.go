package storage

import (
	"fmt"
	"strings"
)

// ColumnDef describes one column of a table schema.
type ColumnDef struct {
	// Name is the column name, unique within its schema (case-insensitive).
	Name string
	// Type is the column's value type.
	Type Type
}

// Schema is an ordered list of column definitions.
type Schema struct {
	cols  []ColumnDef
	index map[string]int // lower-cased name -> ordinal
}

// NewSchema builds a schema from column definitions. It returns an error if
// a column name is duplicated (case-insensitively) or a type is invalid.
func NewSchema(cols ...ColumnDef) (*Schema, error) {
	s := &Schema{
		cols:  make([]ColumnDef, len(cols)),
		index: make(map[string]int, len(cols)),
	}
	copy(s.cols, cols)
	for i, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: column %d has empty name", i)
		}
		if !c.Type.Valid() {
			return nil, fmt.Errorf("storage: column %q has invalid type", c.Name)
		}
		key := strings.ToLower(c.Name)
		if _, dup := s.index[key]; dup {
			return nil, fmt.Errorf("storage: duplicate column name %q", c.Name)
		}
		s.index[key] = i
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error; intended for tests and
// static schemas.
func MustSchema(cols ...ColumnDef) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// NumColumns returns the number of columns in the schema.
func (s *Schema) NumColumns() int { return len(s.cols) }

// Column returns the definition of the i-th column.
func (s *Schema) Column(i int) ColumnDef { return s.cols[i] }

// Columns returns a copy of all column definitions.
func (s *Schema) Columns() []ColumnDef {
	out := make([]ColumnDef, len(s.cols))
	copy(out, s.cols)
	return out
}

// ColumnIndex returns the ordinal of the named column (case-insensitive),
// or -1 if the schema has no such column.
func (s *Schema) ColumnIndex(name string) int {
	if i, ok := s.index[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// RowWidth returns the estimated width of one row in bytes, used by the
// cost model to convert cardinalities into page counts.
func (s *Schema) RowWidth() int {
	w := 0
	for _, c := range s.cols {
		w += c.Type.Width()
	}
	if w == 0 {
		w = 1
	}
	return w
}

// String renders the schema as "(name TYPE, ...)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.cols {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", c.Name, c.Type)
	}
	b.WriteByte(')')
	return b.String()
}
