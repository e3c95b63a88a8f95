// Package catalog maintains schema and statistics metadata for the
// estimation library. The two statistics the paper relies on are the table
// cardinality ‖R‖ and the per-column column cardinality (number of distinct
// values) d_x; the catalog additionally tracks min/max bounds, null counts,
// and optional histograms so that local-predicate selectivities can use
// "distribution statistics" as Section 5 of the paper permits.
//
// A catalog can be populated two ways:
//
//   - synthetically, by declaring statistics directly (the mode used to
//     reproduce the paper's worked examples, which are stated purely in
//     terms of statistics), or
//   - by running Analyze over a storage.Table, which walks each column's
//     sort permutation and derives exact statistics plus histograms (the
//     mode used by the end-to-end experiment).
package catalog

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strings"

	"repro/internal/governor"
	"repro/internal/storage"
)

// ColumnStats holds the optimizer-visible statistics of one column.
type ColumnStats struct {
	// Name is the column name within its table.
	Name string
	// Type is the column's value type.
	Type storage.Type
	// Distinct is the column cardinality d_x: the number of distinct
	// non-null values. The paper's estimation formulas are all stated in
	// terms of this statistic.
	Distinct float64
	// NullCount is the number of NULL entries.
	NullCount float64
	// HasRange reports whether Min/Max are meaningful (numeric columns with
	// at least one non-null value).
	HasRange bool
	// Min and Max bound the non-null values (numeric columns only).
	Min, Max float64
	// Hist, if non-nil, is a histogram over the column's values usable for
	// local-predicate selectivity. May be equi-width or equi-depth.
	Hist *Histogram
}

// Clone returns a deep copy of the statistics.
func (c *ColumnStats) Clone() *ColumnStats {
	out := *c
	if c.Hist != nil {
		out.Hist = c.Hist.Clone()
	}
	return &out
}

// TableStats holds the optimizer-visible statistics of one table.
type TableStats struct {
	// Name is the table name.
	Name string
	// Card is the table cardinality ‖R‖.
	Card float64
	// RowWidth is the estimated row width in bytes (for page-count costing).
	RowWidth int
	// Columns maps lower-cased column names to their statistics.
	Columns map[string]*ColumnStats
}

// Clone returns a deep copy of the statistics.
func (t *TableStats) Clone() *TableStats {
	out := &TableStats{Name: t.Name, Card: t.Card, RowWidth: t.RowWidth,
		Columns: make(map[string]*ColumnStats, len(t.Columns))}
	for k, v := range t.Columns {
		out.Columns[k] = v.Clone()
	}
	return out
}

// Column returns the statistics of the named column (case-insensitive), or
// nil if unknown.
func (t *TableStats) Column(name string) *ColumnStats {
	return t.Columns[strings.ToLower(name)]
}

// Catalog is a collection of table statistics keyed by table name
// (case-insensitive). It may also hold the backing data tables when the
// catalog was built by Analyze, so the executor can find them.
type Catalog struct {
	tables  map[string]*TableStats
	data    map[string]*storage.Table
	order   []string        // registration order, for deterministic iteration
	touched map[string]bool // tables AddTable or SetData wrote (see Touched)
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*TableStats),
		data:    make(map[string]*storage.Table),
		touched: make(map[string]bool),
	}
}

func key(name string) string { return strings.ToLower(name) }

// AddTable registers synthetic statistics for a table. It replaces any
// existing entry of the same name.
func (c *Catalog) AddTable(ts *TableStats) error {
	if ts == nil || ts.Name == "" {
		return fmt.Errorf("%w: table stats must have a name", governor.ErrBadStats)
	}
	if ts.Card < 0 || math.IsNaN(ts.Card) {
		return fmt.Errorf("%w: table %s: cardinality %g", governor.ErrBadStats, ts.Name, ts.Card)
	}
	if ts.Columns == nil {
		ts.Columns = make(map[string]*ColumnStats)
	}
	for k, cs := range ts.Columns {
		if cs.Distinct < 0 || math.IsNaN(cs.Distinct) {
			return fmt.Errorf("%w: table %s column %s: distinct count %g",
				governor.ErrBadStats, ts.Name, k, cs.Distinct)
		}
		if cs.Distinct > ts.Card && ts.Card > 0 {
			// A column cannot have more distinct values than rows; clamp, as a
			// real system's ANALYZE would never produce this but synthetic
			// declarations may.
			cs.Distinct = ts.Card
		}
	}
	k := key(ts.Name)
	if _, exists := c.tables[k]; !exists {
		c.order = append(c.order, k)
	}
	c.tables[k], c.touched[k] = ts, true
	return nil
}

// Touched returns the names of the registered tables AddTable or SetData
// wrote since the catalog was made by New or Clone, equal writes included,
// in registration order. A change made to a table's statistics in place
// is not recorded.
func (c *Catalog) Touched() []string {
	out := make([]string, 0, len(c.touched))
	for _, k := range c.order {
		if c.touched[k] {
			out = append(out, c.tables[k].Name)
		}
	}
	return out
}

// MustAddTable is AddTable but panics on error; for tests and static setups.
func (c *Catalog) MustAddTable(ts *TableStats) {
	if err := c.AddTable(ts); err != nil {
		panic(err)
	}
}

// Table returns the statistics for the named table, or nil if unknown.
func (c *Catalog) Table(name string) *TableStats { return c.tables[key(name)] }

// Data returns the backing data table registered under name, or nil.
func (c *Catalog) Data(name string) *storage.Table { return c.data[key(name)] }

// SetData registers backing data for a table without re-deriving
// statistics. It is Analyze's helper and holds Analyze's precondition: no
// float64 column of tbl holds a NaN.
func (c *Catalog) SetData(name string, tbl *storage.Table) {
	c.data[key(name)], c.touched[key(name)] = tbl, true
}

// TableNames returns the registered table names in registration order.
func (c *Catalog) TableNames() []string {
	out := make([]string, 0, len(c.order))
	for _, k := range c.order {
		out = append(out, c.tables[k].Name)
	}
	return out
}

// Clone returns a deep copy of the catalog's statistics, with nothing
// Touched. Backing data tables are shared (they are immutable once loaded).
func (c *Catalog) Clone() *Catalog {
	out := New()
	for _, k := range c.order {
		out.tables[k] = c.tables[k].Clone()
		out.order = append(out.order, k)
	}
	maps.Copy(out.data, c.data)
	return out
}

// SimpleTable is a convenience constructor for the common synthetic case
// used throughout the paper: a table with a cardinality and a set of
// integer columns given as name -> distinct count. Min/max default to
// [0, distinct-1], matching the uniform integer domains used by the
// experiment's data generator.
func SimpleTable(name string, card float64, cols map[string]float64) *TableStats {
	ts := &TableStats{
		Name:     name,
		Card:     card,
		RowWidth: 8 * max(1, len(cols)),
		Columns:  make(map[string]*ColumnStats, len(cols)),
	}
	names := make([]string, 0, len(cols))
	for n := range cols {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := cols[n]
		ts.Columns[key(n)] = &ColumnStats{
			Name:     n,
			Type:     storage.TypeInt64,
			Distinct: d,
			HasRange: true,
			Min:      0,
			Max:      d - 1,
		}
	}
	return ts
}
