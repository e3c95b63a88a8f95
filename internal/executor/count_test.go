package executor

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// countCase is one join TestCountModeMatchesPairs runs: L's keys probe R's,
// each a (k, v) table whose v is the row number.
type countCase struct {
	name  string
	typ   storage.Type
	key   func(d int) storage.Value // the key of domain value d
	l, r  int                       // rows of L and R
	cross bool                      // no join predicate: a cross product
}

// noKey is the domain value of a NULL key.
const noKey = math.MinInt

// lKey and rKey are row's domain value in L and in R: R holds 0..49, a row
// in 13 NULL, so a key has up to 40 build rows; L holds −10..69, a row in
// 11 NULL, so it probes below and above R's least and greatest key.
func lKey(row int) int {
	if row%11 == 5 {
		return noKey
	}
	return row%80 - 10
}

func rKey(row int) int {
	if row%13 == 7 {
		return noKey
	}
	return row % 50
}

// countCases are the key kinds of the hash join's bindings. int64 keys
// build dense, or hashed when 2^20 apart; float64 keys join as their bits,
// bool keys as 0/1.
func countCases() []countCase {
	return []countCase{
		{"int64 dense", storage.TypeInt64, func(d int) storage.Value { return storage.Int64(int64(d)) }, 1000, 2000, false},
		{"int64 hashed", storage.TypeInt64, func(d int) storage.Value { return storage.Int64(int64(d) << 20) }, 1000, 2000, false},
		{"float bits", storage.TypeFloat64, func(d int) storage.Value { return storage.Float64(float64(d) / 4) }, 1000, 2000, false},
		{"string", storage.TypeString, func(d int) storage.Value { return storage.String64(fmt.Sprint("key-", d)) }, 1000, 2000, false},
		{"bool", storage.TypeBool, func(d int) storage.Value { return storage.Bool(d%2 == 0) }, 150, 200, false},
		{"cross product", storage.TypeInt64, func(d int) storage.Value { return storage.Int64(int64(d)) }, 130, 110, true},
	}
}

// load registers the case's L and R.
func (c countCase) load(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for _, side := range []struct {
		name string
		n    int
		key  func(int) int
	}{{"L", c.l, lKey}, {"R", c.r, rKey}} {
		rows := make([][]storage.Value, side.n)
		for i := range rows {
			k := storage.Null(c.typ)
			if d := side.key(i); d != noKey {
				k = c.key(d)
			}
			rows[i] = []storage.Value{k, storage.Int64(int64(i))}
		}
		loadTable(t, cat, side.name, kvSchema(c.typ), rows)
	}
	return cat
}

// plan plans L ⋈ R (L × R for a cross product) in that order, L the probe
// side, with the one join method.
func (c countCase) plan(t *testing.T, cat *catalog.Catalog, method optimizer.JoinMethod) optimizer.Plan {
	t.Helper()
	var preds []expr.Predicate
	if !c.cross {
		preds = append(preds, expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k")))
	}
	est, err := cardest.New(cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}}, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	opt, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{method}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := opt.PlanForOrder([]string{"L", "R"})
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := plan.(*optimizer.Join); !ok || j.Method != method {
		t.Fatalf("plan is not a %v join: %v", method, plan)
	}
	return plan
}

// countRun is what one execution showed: its counters, or the error it
// stopped with, and the governor's tuple and row charges, ledger peak and
// partitioning passes.
type countRun struct {
	rows, tuples, comparisons int64
	err                       error
	charged                   [2]int64
	peak, spills              int64
}

// runCounted executes plan carrying the columns cols under limits.
func runCounted(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan, cols []int, limits governor.Limits) countRun {
	t.Helper()
	gov := governor.New(context.Background(), limits)
	res, err := NewGoverned(cat, gov).ExecuteColumns(plan, cols)
	var run countRun
	if err != nil {
		run.err = err
	} else {
		run.rows, run.tuples, run.comparisons = res.Stats.RowsProduced, res.Stats.TuplesScanned, res.Stats.Comparisons
	}
	run.charged[0], run.charged[1], _ = gov.Usage()
	_, run.peak, _ = gov.MemoryUsage()
	run.spills, _ = gov.SpillStats()
	return run
}

// A join whose output carries no column and has no residual counts its
// pairs without forming them (pairSink.counting): a dense build sums its
// runs a block at a time, a hashed one run by run, sort-merge a run
// product at a time, and a partitioned join adds up its partitions. The
// oracle is the same plan with one live column, which forms every pair:
// rows, TuplesScanned, Comparisons and the governor's tuple and row charges
// must be equal, and under a row or tuple budget both must stop at the
// same charge, so the charges come in the same chunks. A counting root
// takes no pair arena, so its ledger peaks at least that much lower. A
// nested-loops equi-join applies its key as a residual: counting, it binds
// each outer row's key into the residual, filters the inner's batch with
// it and counts what passes, cut where the pair batches end.
func TestCountModeMatchesPairs(t *testing.T) {
	methods := []optimizer.JoinMethod{optimizer.HashJoin, optimizer.SortMerge, optimizer.NestedLoop}
	for _, c := range countCases() {
		cat := c.load(t)
		for _, method := range methods {
			// Only nested loops run a cross product. They neither hash nor
			// partition, so int64 keys once and no other budget cover them.
			nl := method == optimizer.NestedLoop
			if c.cross && !nl || nl && c.name == "int64 hashed" {
				continue
			}
			plan := c.plan(t, cat, method)
			for _, budget := range []int64{0, 512} {
				if nl && budget > 0 && c.name != "int64 dense" && !c.cross {
					continue
				}
				if method == optimizer.SortMerge && budget > 0 {
					budget = 1 << 20 // the sort scratch cannot be partitioned
				}
				t.Run(fmt.Sprintf("%s/%v/budget=%d", c.name, method, budget), func(t *testing.T) {
					limits := governor.Limits{MaxMemory: budget}
					counted := runCounted(t, cat, plan, []int{}, limits)
					paired := runCounted(t, cat, plan, []int{1}, limits)
					if counted.err != nil || paired.err != nil {
						t.Fatalf("errors %v, %v", counted.err, paired.err)
					}
					if counted.rows < 3*colBatch {
						t.Fatalf("%d rows: fewer than three pair batches test no chunking", counted.rows)
					}
					if partitioned := method == optimizer.HashJoin && budget > 0; partitioned != (counted.spills > 0) {
						t.Fatalf("%d partitioning passes under budget %d", counted.spills, budget)
					}
					if counted.rows != paired.rows || counted.tuples != paired.tuples ||
						counted.comparisons != paired.comparisons || counted.charged != paired.charged {
						t.Fatalf("counted: rows %d, tuples %d, comparisons %d, charged %v; paired: %d, %d, %d, %v",
							counted.rows, counted.tuples, counted.comparisons, counted.charged,
							paired.rows, paired.tuples, paired.comparisons, paired.charged)
					}
					if paired.peak-counted.peak < pairArenaBytes {
						t.Errorf("ledger peaks %d counted, %d paired: the root took a pair arena", counted.peak, paired.peak)
					}
					rows, tuples := counted.charged[1], counted.charged[0]
					var stops []governor.Limits
					for _, n := range []int64{1, colBatch - 1, colBatch, colBatch + 1, 2*colBatch + 7, rows - 1} {
						stops = append(stops, governor.Limits{MaxMemory: budget, MaxRows: n})
					}
					for _, n := range []int64{tuples / 3, tuples / 2, tuples - 1} {
						stops = append(stops, governor.Limits{MaxMemory: budget, MaxTuples: n})
					}
					for _, stop := range stops {
						counted, paired := runCounted(t, cat, plan, []int{}, stop), runCounted(t, cat, plan, []int{1}, stop)
						if !errors.Is(counted.err, governor.ErrBudgetExceeded) || !errors.Is(paired.err, governor.ErrBudgetExceeded) {
							t.Fatalf("rows %d, tuples %d: errors %v and %v, want both over budget",
								stop.MaxRows, stop.MaxTuples, counted.err, paired.err)
						}
						if counted.charged != paired.charged {
							t.Fatalf("rows %d, tuples %d: counted stopped at %v, paired at %v",
								stop.MaxRows, stop.MaxTuples, counted.charged, paired.charged)
						}
					}
				})
			}
		}
	}
}

// A counting nested-loops join binds each outer row's values into its whole
// residual (bindOuter): an outer operand on either side of a comparison
// that does not commute, and keys of every kind, int64 against float64
// both ways round included. Counted against the same plan with one live
// column, it gives the same rows, TuplesScanned, Comparisons and charges,
// stops at the same charges under row and tuple budgets, and takes no pair
// arena.
func TestNestedLoopCountBindsResidual(t *testing.T) {
	for _, c := range orientCases() {
		cat := c.load(t)
		preds := []expr.Predicate{
			expr.NewJoin(ref("L", "k"), expr.OpEQ, ref("R", "k")),
			expr.NewJoin(ref("L", "v"), expr.OpLT, ref("R", "v")),
			expr.NewConst(ref("L", "v"), expr.OpLT, storage.Int64(800)),
		}
		est, err := cardest.New(cat, []cardest.TableRef{{Table: "L"}, {Table: "R"}}, preds, cardest.ELS())
		if err != nil {
			t.Fatal(err)
		}
		opt, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.NestedLoop}})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := opt.PlanForOrder([]string{"L", "R"})
		if err != nil {
			t.Fatal(err)
		}
		// R.v ≥ L.v + 0, the inner operand on the left: the optimizer's own
		// conjuncts put the outer one there.
		j := plan.(*optimizer.Join)
		j.Residual = append(j.Residual, optimizer.Cond{Left: 3, Op: expr.OpGE, Right: 1})
		t.Run(c.name, func(t *testing.T) {
			counted := runCounted(t, cat, plan, []int{}, governor.Limits{})
			paired := runCounted(t, cat, plan, []int{1}, governor.Limits{})
			if counted.err != nil || paired.err != nil {
				t.Fatalf("errors %v, %v", counted.err, paired.err)
			}
			if counted.rows < colBatch {
				t.Fatalf("%d rows: fewer than a pair batch test no row budget", counted.rows)
			}
			if counted.rows != paired.rows || counted.tuples != paired.tuples ||
				counted.comparisons != paired.comparisons || counted.charged != paired.charged {
				t.Fatalf("counted: rows %d, tuples %d, comparisons %d, charged %v; paired: %d, %d, %d, %v",
					counted.rows, counted.tuples, counted.comparisons, counted.charged,
					paired.rows, paired.tuples, paired.comparisons, paired.charged)
			}
			if paired.peak-counted.peak < pairArenaBytes {
				t.Errorf("ledger peaks %d counted, %d paired: the root took a pair arena", counted.peak, paired.peak)
			}
			for _, stop := range []governor.Limits{{MaxRows: colBatch - 1}, {MaxRows: counted.rows - 1}, {MaxTuples: counted.tuples / 2}} {
				counted, paired := runCounted(t, cat, plan, []int{}, stop), runCounted(t, cat, plan, []int{1}, stop)
				if !errors.Is(counted.err, governor.ErrBudgetExceeded) || counted.charged != paired.charged {
					t.Fatalf("rows %d, tuples %d: counted stopped at %v (%v), paired at %v (%v)",
						stop.MaxRows, stop.MaxTuples, counted.charged, counted.err, paired.charged, paired.err)
				}
			}
		})
	}
}
