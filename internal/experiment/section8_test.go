package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/sqlparse"
)

// The scale-10 Section 8 run is the workhorse test: fast, deterministic,
// and it checks the three headline properties of the paper's table — (i)
// all four plans compute the same correct count, (ii) the misestimating
// algorithms' estimates collapse toward zero while ELS stays exact, and
// (iii) ELS's plan does an order of magnitude less work.
func TestRunSection8Scale10(t *testing.T) {
	res, err := RunSection8(Section8Options{Scale: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
	if res.CorrectSize != 10 {
		t.Fatalf("correct size = %g, want 10", res.CorrectSize)
	}
	labels := []string{"SM", "SM", "SSS", "ELS"}
	for i, row := range res.Rows {
		if row.Algorithm != labels[i] {
			t.Errorf("row %d algorithm = %s, want %s", i, row.Algorithm, labels[i])
		}
		if row.TrueCount != 10 {
			t.Errorf("row %d true count = %d, want 10 (all plans must be correct)", i, row.TrueCount)
		}
		if len(row.JoinOrder) != 4 || len(row.EstimatedSizes) != 3 || len(row.Methods) != 3 {
			t.Errorf("row %d shape wrong: %+v", i, row)
		}
		// Assert on the deterministic work counters only: wall-clock can
		// legitimately measure ~0 on coarse clocks or very fast runs.
		if row.Stats.TuplesScanned <= 0 || row.Stats.RowsProduced <= 0 {
			t.Errorf("row %d missing execution stats: %+v", i, row.Stats)
		}
	}
	smPTC, sssPTC, els := res.Rows[1], res.Rows[2], res.Rows[3]
	// ELS estimates the correct size at every step.
	for _, s := range els.EstimatedSizes {
		if s != 10 {
			t.Errorf("ELS estimate %g, want 10", s)
		}
	}
	// The misestimating algorithms drive their final estimates far below 1.
	if smPTC.EstimatedSizes[2] > 1e-10 {
		t.Errorf("SM+PTC final estimate %g, should collapse toward 0", smPTC.EstimatedSizes[2])
	}
	if sssPTC.EstimatedSizes[2] > 1e-3 {
		t.Errorf("SSS+PTC final estimate %g, should be far below 10", sssPTC.EstimatedSizes[2])
	}
	// The reproduction's headline: ELS's plan does much less work than
	// every other configuration.
	for i := 0; i < 3; i++ {
		ratio := float64(res.Rows[i].Stats.TuplesScanned) / float64(els.Stats.TuplesScanned)
		if ratio < 1.5 {
			t.Errorf("row %d work ratio vs ELS = %.2f, want > 1.5", i, ratio)
		}
	}
	// And the misestimating PTC rows pay for their nested-loops rescans.
	if smPTC.Stats.TuplesScanned < 5*els.Stats.TuplesScanned {
		t.Errorf("SM+PTC work (%d) should dwarf ELS (%d)", smPTC.Stats.TuplesScanned, els.Stats.TuplesScanned)
	}
}

// Estimates-only mode must reproduce the paper's exact numbers at scale 1
// without generating data.
func TestRunSection8EstimatesOnlyPaperNumbers(t *testing.T) {
	res, err := RunSection8(Section8Options{Scale: 1, SkipExecution: true})
	if err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		row  int
		want []float64
	}{
		{1, []float64{0.2, 4e-8, 4e-21}}, // SM + PTC (paper row 2)
		{2, []float64{0.2, 4e-4, 4e-7}},  // SSS + PTC (paper row 3)
		{3, []float64{100, 100, 100}},    // ELS (paper row 4)
	}
	for _, c := range checks {
		got := res.Rows[c.row].EstimatedSizes
		for i := range c.want {
			if math.Abs(got[i]-c.want[i]) > 1e-9*math.Abs(c.want[i]) {
				t.Errorf("row %d step %d = %g, want %g (paper)", c.row, i, got[i], c.want[i])
			}
		}
	}
	// Without execution no stats are collected.
	if res.Rows[0].Stats.TuplesScanned != 0 || res.Rows[0].TrueCount != 0 {
		t.Error("SkipExecution must not execute")
	}
}

// A6: with indexes on every join column and index-nested-loops enabled,
// the work gap between algorithms collapses — misestimation is forgiven by
// a forgiving access-path design. (The estimates themselves stay wrong.)
func TestSection8WithIndexes(t *testing.T) {
	plain, err := RunSection8(Section8Options{Scale: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	idx, err := RunSection8(Section8Options{Scale: 10, Seed: 42, WithIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	var worstIdx, bestIdx int64
	for i, row := range idx.Rows {
		if row.TrueCount != 10 {
			t.Errorf("row %d count = %d, want 10", i, row.TrueCount)
		}
		if worstIdx == 0 || row.Stats.TuplesScanned > worstIdx {
			worstIdx = row.Stats.TuplesScanned
		}
		if bestIdx == 0 || row.Stats.TuplesScanned < bestIdx {
			bestIdx = row.Stats.TuplesScanned
		}
		// Indexed plans must do far less work than the unindexed ones.
		if row.Stats.TuplesScanned*10 > plain.Rows[i].Stats.TuplesScanned {
			t.Errorf("row %d: indexed work %d not ≪ plain %d",
				i, row.Stats.TuplesScanned, plain.Rows[i].Stats.TuplesScanned)
		}
	}
	// The between-algorithm gap collapses: worst/best within 3x (plain
	// Section 8 shows ~10x).
	if bestIdx > 0 && float64(worstIdx)/float64(bestIdx) > 3 {
		t.Errorf("indexed work gap %d/%d should be small", worstIdx, bestIdx)
	}
	// Estimates-only mode cannot index.
	if _, err := RunSection8(Section8Options{Scale: 10, SkipExecution: true, WithIndexes: true}); err == nil {
		t.Error("WithIndexes without execution should error")
	}
}

func TestSection8DefaultScale(t *testing.T) {
	res, err := RunSection8(Section8Options{SkipExecution: true, Scale: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scale != 1 || res.CorrectSize != 100 {
		t.Errorf("default scale handling: %+v", res)
	}
}

func TestSection8CatalogSynthetic(t *testing.T) {
	cat, err := Section8Catalog(Section8Options{Scale: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Table("G").Card != 100000 {
		t.Errorf("‖G‖ = %g", cat.Table("G").Card)
	}
	if cat.Data("G") != nil {
		t.Error("synthetic catalog should have no data")
	}
	q, err := sqlparse.ParseAndBind(Section8Query, cat)
	if err != nil {
		t.Fatal(err)
	}
	if !q.CountStar || len(q.Where) != 4 {
		t.Errorf("parsed query wrong: %+v", q)
	}
	if q.Where[0].Left.Table != "S" {
		t.Errorf("binding failed: %v", q.Where[0])
	}
}

func TestSection8CatalogWithData(t *testing.T) {
	cat, err := Section8Catalog(Section8Options{Scale: 100, Seed: 7}, true)
	if err != nil {
		t.Fatal(err)
	}
	if cat.Data("S") == nil || cat.Data("S").NumRows() != 10 {
		t.Error("data catalog should carry generated tables")
	}
	// ANALYZE should have recovered the paper's statistics exactly (the
	// permutation generator gives d = ‖R‖).
	if got := cat.Table("B").Column("b").Distinct; got != 500 {
		t.Errorf("d_b = %g, want 500", got)
	}
}

func TestFormatSection8(t *testing.T) {
	res, err := RunSection8(Section8Options{Scale: 1, SkipExecution: true})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatSection8(res)
	for _, want := range []string{"ELS", "SSS", "Orig. + PTC", "Join Order"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "\n") < 5 {
		t.Errorf("formatted table too short:\n%s", out)
	}
}
