package cardest

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/faultinject"
)

func corruptCatalog(t *testing.T, mutate func(*catalog.TableStats)) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("R1", 100, map[string]float64{"x": 10}))
	cat.MustAddTable(catalog.SimpleTable("R2", 1000, map[string]float64{"y": 100}))
	// Catalog.Table returns the live pointer, so stats can rot in place —
	// exactly what a corrupted import or botched ANALYZE produces.
	mutate(cat.Table("R1"))
	return cat
}

func estimateJoin(t *testing.T, cat *catalog.Catalog) (*Estimator, float64) {
	t.Helper()
	preds := []expr.Predicate{expr.NewJoin(
		expr.ColumnRef{Table: "R1", Column: "x"}, expr.OpEQ,
		expr.ColumnRef{Table: "R2", Column: "y"})}
	est, err := NewQuery(cat, []TableRef{{Table: "R1"}, {Table: "R2"}}, preds, nil, ELS())
	if err != nil {
		t.Fatal(err)
	}
	size, err := est.FinalSize([]string{"R1", "R2"})
	if err != nil {
		t.Fatal(err)
	}
	return est, size
}

// Corrupt statistics — NaN, negative, or zero cardinalities — must degrade
// to the documented defaults and still yield finite, non-negative
// estimates, never NaN/Inf garbage.
func TestCorruptStatsDegradeGracefully(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(ts *catalog.TableStats)
	}{
		{"nan card", func(ts *catalog.TableStats) { ts.Card = math.NaN() }},
		{"negative card", func(ts *catalog.TableStats) { ts.Card = -50 }},
		{"inf card", func(ts *catalog.TableStats) { ts.Card = math.Inf(1) }},
		{"nan distinct", func(ts *catalog.TableStats) { ts.Column("x").Distinct = math.NaN() }},
		{"negative distinct", func(ts *catalog.TableStats) { ts.Column("x").Distinct = -3 }},
		{"zero distinct", func(ts *catalog.TableStats) { ts.Column("x").Distinct = 0 }},
		{"distinct above card", func(ts *catalog.TableStats) { ts.Column("x").Distinct = 1e9 }},
		{"nan range", func(ts *catalog.TableStats) { ts.Column("x").Min = math.NaN() }},
		{"everything at once", func(ts *catalog.TableStats) {
			ts.Card = math.NaN()
			ts.Column("x").Distinct = -1
			ts.Column("x").Max = math.NaN()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			est, size := estimateJoin(t, corruptCatalog(t, tc.mutate))
			if math.IsNaN(size) || math.IsInf(size, 0) || size < 0 {
				t.Fatalf("estimate %g is not finite and non-negative", size)
			}
			if len(est.Warnings()) == 0 {
				t.Fatal("statistics repair must be reported via Warnings")
			}
		})
	}
}

// The repaired defaults are the documented ones: table cardinality falls
// back to DefaultTableCard, column cardinality to the urn default (→ the
// Selinger 1/10 equality selectivity on large tables).
func TestDegradedDefaults(t *testing.T) {
	cat := corruptCatalog(t, func(ts *catalog.TableStats) {
		ts.Card = math.NaN()
		ts.Column("x").Distinct = math.NaN()
	})
	est, _ := estimateJoin(t, cat)
	base, err := est.baseStats("R1")
	if err != nil {
		t.Fatal(err)
	}
	if base.Card != DefaultTableCard {
		t.Fatalf("card fallback = %g, want %d", base.Card, DefaultTableCard)
	}
	if d := base.Column("x").Distinct; d != 10 {
		t.Fatalf("distinct fallback = %g, want 10 (urn default at card %d)", d, DefaultTableCard)
	}
}

// An empty table is not corruption: zero cardinality passes through and
// estimates to zero without warnings.
func TestEmptyTableIsNotRepaired(t *testing.T) {
	cat := catalog.New()
	cat.MustAddTable(catalog.SimpleTable("R1", 0, map[string]float64{"x": 0}))
	cat.MustAddTable(catalog.SimpleTable("R2", 1000, map[string]float64{"y": 100}))
	est, size := estimateJoin(t, cat)
	if size != 0 {
		t.Fatalf("empty table should estimate 0, got %g", size)
	}
	if len(est.Warnings()) != 0 {
		t.Fatalf("unexpected warnings %v", est.Warnings())
	}
}

// The shared catalog must never be mutated by per-query repair: every
// repair sanitizeStats makes lands on a copy, and the catalog keeps the
// corrupt value.
func TestSanitizeDoesNotMutateCatalog(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(ts *catalog.TableStats)
		kept   func(ts *catalog.TableStats) bool
	}{
		{"nan card",
			func(ts *catalog.TableStats) { ts.Card = math.NaN() },
			func(ts *catalog.TableStats) bool { return math.IsNaN(ts.Card) }},
		{"zero row width",
			func(ts *catalog.TableStats) { ts.RowWidth = 0 },
			func(ts *catalog.TableStats) bool { return ts.RowWidth == 0 }},
		{"nan distinct",
			func(ts *catalog.TableStats) { ts.Column("x").Distinct = math.NaN() },
			func(ts *catalog.TableStats) bool { return math.IsNaN(ts.Column("x").Distinct) }},
		{"distinct above card",
			func(ts *catalog.TableStats) { ts.Column("x").Distinct = 1e9 },
			func(ts *catalog.TableStats) bool { return ts.Column("x").Distinct == 1e9 }},
		{"nan null count",
			func(ts *catalog.TableStats) { ts.Column("x").NullCount = math.NaN() },
			func(ts *catalog.TableStats) bool { return math.IsNaN(ts.Column("x").NullCount) }},
		{"min above max",
			func(ts *catalog.TableStats) { ts.Column("x").Min, ts.Column("x").Max = 50, 5 },
			func(ts *catalog.TableStats) bool {
				cs := ts.Column("x")
				return cs.HasRange && cs.Min == 50 && cs.Max == 5
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cat := corruptCatalog(t, tc.mutate)
			est, _ := estimateJoin(t, cat)
			if !tc.kept(cat.Table("R1")) {
				t.Fatal("sanitization leaked into the shared catalog")
			}
			base, err := est.baseStats("R1")
			if err != nil {
				t.Fatal(err)
			}
			if base == cat.Table("R1") || tc.kept(base) {
				t.Fatal("the estimator's statistics were not repaired on a copy")
			}
		})
	}
}

// The construction probe supports all three fault shapes: hard error,
// payload corruptor, and panic (the latter recovered at the public API).
func TestNewQueryFaultInjection(t *testing.T) {
	defer faultinject.Reset()
	cat := corruptCatalog(t, func(*catalog.TableStats) {})
	preds := []expr.Predicate{expr.NewJoin(
		expr.ColumnRef{Table: "R1", Column: "x"}, expr.OpEQ,
		expr.ColumnRef{Table: "R2", Column: "y"})}
	refs := []TableRef{{Table: "R1"}, {Table: "R2"}}

	boom := errors.New("stats store down")
	faultinject.Enable(PointNewQuery, faultinject.Fault{Err: boom, Times: 1})
	if _, err := NewQuery(cat, refs, preds, nil, ELS()); !errors.Is(err, boom) {
		t.Fatalf("want injected error, got %v", err)
	}

	faultinject.Enable(PointNewQuery, faultinject.Fault{Times: 1,
		Payload: func(ts *catalog.TableStats) { ts.Card = math.NaN() }})
	est, err := NewQuery(cat, refs, preds, nil, ELS())
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Warnings()) == 0 || !strings.Contains(est.Warnings()[0], "invalid") {
		t.Fatalf("corruptor payload must trigger repair warnings, got %v", est.Warnings())
	}
}
