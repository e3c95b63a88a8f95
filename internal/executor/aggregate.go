package executor

import (
	"fmt"
	"sort"

	"repro/internal/storage"
)

// AggOp is an aggregate operator for Aggregate.
type AggOp int

const (
	// AggCountStar counts rows.
	AggCountStar AggOp = iota
	// AggCount counts non-NULL values of a column.
	AggCount
	// AggSum sums a numeric column (NULLs skipped).
	AggSum
	// AggMin takes the minimum value (NULLs skipped).
	AggMin
	// AggMax takes the maximum value (NULLs skipped).
	AggMax
	// AggAvg averages a numeric column (NULLs skipped).
	AggAvg
)

// String names the operator.
func (op AggOp) String() string {
	switch op {
	case AggCountStar, AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggAvg:
		return "AVG"
	default:
		return "?"
	}
}

// AggSpec is one aggregate to compute: Op over column ordinal Col of the
// input (ignored for AggCountStar). Name labels the output column.
type AggSpec struct {
	// Op is the aggregate operator.
	Op AggOp
	// Col is the subject column ordinal (unused for AggCountStar).
	Col int
	// Name is the output column name.
	Name string
}

// aggState accumulates one aggregate for one group.
type aggState struct {
	count int64
	sum   float64
	min   storage.Value
	max   storage.Value
	seen  bool
}

// Aggregate hash-groups the input by the groupCols ordinals and computes
// the aggregates per group under the executor's governor — ungoverned
// grouping was the one row-producing path that escaped budget accounting.
// It follows the SQL semantics: NULL values are skipped by column
// aggregates, NULL group keys form their own group, and with no grouping
// columns a single group is produced even over empty input. Output columns
// are the group columns (in order) followed by the aggregates. Groups are
// emitted in a deterministic (key-sorted) order.
func (e *Executor) Aggregate(tbl *storage.Table, groupCols []int, aggs []AggSpec) (*storage.Table, error) {
	if tbl == nil {
		return nil, fmt.Errorf("executor: Aggregate(nil)")
	}
	inSchema := tbl.Schema()
	for _, c := range groupCols {
		if c < 0 || c >= inSchema.NumColumns() {
			return nil, fmt.Errorf("executor: group column ordinal %d out of range", c)
		}
	}
	outCols := make([]storage.ColumnDef, 0, len(groupCols)+len(aggs))
	for _, c := range groupCols {
		outCols = append(outCols, inSchema.Column(c))
	}
	for _, a := range aggs {
		if a.Op != AggCountStar && (a.Col < 0 || a.Col >= inSchema.NumColumns()) {
			return nil, fmt.Errorf("executor: aggregate column ordinal %d out of range", a.Col)
		}
		var typ storage.Type
		switch a.Op {
		case AggCountStar, AggCount:
			typ = storage.TypeInt64
		case AggSum, AggAvg:
			typ = storage.TypeFloat64
		case AggMin, AggMax:
			typ = inSchema.Column(a.Col).Type
		default:
			return nil, fmt.Errorf("executor: unknown aggregate op %d", int(a.Op))
		}
		name := a.Name
		if name == "" {
			name = fmt.Sprintf("agg%d", len(outCols))
		}
		outCols = append(outCols, storage.ColumnDef{Name: name, Type: typ})
	}
	outSchema, err := storage.NewSchema(outCols...)
	if err != nil {
		return nil, err
	}

	type group struct {
		keyVals []storage.Value
		states  []aggState
	}
	groups := make(map[string]*group)
	var keys []string
	keyOf := func(row int) string {
		k := ""
		for _, c := range groupCols {
			k += tbl.Value(row, c).Key() + "\x00"
		}
		return k
	}
	for r := 0; r < tbl.NumRows(); r++ {
		if err := e.gov.TickTuples(1); err != nil {
			return nil, err
		}
		k := keyOf(r)
		g, ok := groups[k]
		if !ok {
			g = &group{states: make([]aggState, len(aggs))}
			for _, c := range groupCols {
				g.keyVals = append(g.keyVals, tbl.Value(r, c))
			}
			groups[k] = g
			keys = append(keys, k)
		}
		for i, a := range aggs {
			st := &g.states[i]
			if a.Op == AggCountStar {
				st.count++
				continue
			}
			v := tbl.Value(r, a.Col)
			if v.IsNull() {
				continue
			}
			st.count++
			switch a.Op {
			case AggSum, AggAvg:
				st.sum += v.AsFloat()
			case AggMin:
				if !st.seen || storage.Compare(v, st.min) < 0 {
					st.min = v
				}
			case AggMax:
				if !st.seen || storage.Compare(v, st.max) > 0 {
					st.max = v
				}
			}
			st.seen = true
		}
	}
	// A global aggregate over empty input still yields one row.
	if len(groupCols) == 0 && len(groups) == 0 {
		groups[""] = &group{states: make([]aggState, len(aggs))}
		keys = append(keys, "")
	}
	sort.Strings(keys)

	out := storage.NewTable("aggregate", outSchema)
	row := make([]storage.Value, 0, len(outCols))
	for _, k := range keys {
		g := groups[k]
		row = row[:0]
		row = append(row, g.keyVals...)
		for i, a := range aggs {
			st := g.states[i]
			switch a.Op {
			case AggCountStar, AggCount:
				row = append(row, storage.Int64(st.count))
			case AggSum:
				if st.count == 0 {
					row = append(row, storage.Null(storage.TypeFloat64))
				} else {
					row = append(row, storage.Float64(st.sum))
				}
			case AggAvg:
				if st.count == 0 {
					row = append(row, storage.Null(storage.TypeFloat64))
				} else {
					row = append(row, storage.Float64(st.sum/float64(st.count)))
				}
			case AggMin:
				if !st.seen {
					row = append(row, storage.Null(outSchema.Column(len(g.keyVals)+i).Type))
				} else {
					row = append(row, st.min)
				}
			case AggMax:
				if !st.seen {
					row = append(row, storage.Null(outSchema.Column(len(g.keyVals)+i).Type))
				} else {
					row = append(row, st.max)
				}
			}
		}
		if err := e.gov.TickRows(1); err != nil {
			return nil, err
		}
		if err := out.AppendRow(row...); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Aggregate is the ungoverned compatibility form: grouping with no budget
// attached (a nil governor never trips).
func Aggregate(tbl *storage.Table, groupCols []int, aggs []AggSpec) (*storage.Table, error) {
	return (&Executor{}).Aggregate(tbl, groupCols, aggs)
}
