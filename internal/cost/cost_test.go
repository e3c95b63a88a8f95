package cost

import (
	"testing"
	"testing/quick"
)

func TestPages(t *testing.T) {
	m := DefaultModel()
	if m.Pages(0, 8) != 0 {
		t.Error("empty relation has no pages")
	}
	if m.Pages(1, 8) != 1 {
		t.Error("one row occupies one page")
	}
	// 4096/8 = 512 rows per page.
	if m.Pages(512, 8) != 1 || m.Pages(513, 8) != 2 {
		t.Errorf("page math: %g, %g", m.Pages(512, 8), m.Pages(513, 8))
	}
	// Zero width defaults sensibly.
	if m.Pages(100, 0) <= 0 {
		t.Error("zero width should still page")
	}
	// Very wide rows: at least one row per page.
	if m.Pages(10, 100000) != 10 {
		t.Errorf("wide rows: %g", m.Pages(10, 100000))
	}
}

func TestScanCostMonotone(t *testing.T) {
	m := DefaultModel()
	if m.ScanCost(1000, 8) <= m.ScanCost(100, 8) {
		t.Error("scan cost should grow with rows")
	}
	if m.ScanCost(100, 80) <= m.ScanCost(100, 8) {
		t.Error("scan cost should grow with width")
	}
}

func TestSortCost(t *testing.T) {
	m := DefaultModel()
	if m.SortCost(0, 8) != m.ScanCost(0, 8) || m.SortCost(1, 8) != m.ScanCost(1, 8) {
		t.Error("trivial sorts cost a scan")
	}
	if m.SortCost(10000, 8) <= m.ScanCost(10000, 8) {
		t.Error("sorting must cost more than scanning")
	}
}

func TestNestedLoopCost(t *testing.T) {
	m := DefaultModel()
	// The defining property: cost scales with outer rows times inner rescan.
	small := m.NestedLoopCost(10, 10, 100)
	big := m.NestedLoopCost(10, 1000, 100)
	if big <= small {
		t.Error("NL cost must grow with outer rows")
	}
	if got := m.NestedLoopCost(5, 0, 1000); got != 5 {
		t.Errorf("zero outer rows: %g, want outer cost only", got)
	}
	// Negative estimates (possible with broken estimators) clamp to 0.
	if got := m.NestedLoopCost(5, -10, 1000); got != 5 {
		t.Errorf("negative outer rows: %g", got)
	}
}

// sortMerge is SortMergeCost of inputs with the given rows and widths.
func sortMerge(m *Model, outerCost, innerCost, outerRows, innerRows float64, outerWidth, innerWidth int) float64 {
	return m.SortMergeCost(outerCost, innerCost, outerRows, innerRows, m.SortTerm(outerRows, outerWidth), m.SortTerm(innerRows, innerWidth))
}

func TestSortMergeCost(t *testing.T) {
	m := DefaultModel()
	c := sortMerge(m, 100, 200, 1000, 2000, 8, 8)
	if c <= 300 {
		t.Error("sort-merge must add sort and merge cost on top of inputs")
	}
	// Tiny inputs: no negative sort terms.
	if sortMerge(m, 1, 1, 0, 0, 8, 8) < 2 {
		t.Error("degenerate sort-merge cost wrong")
	}
}

func TestHashJoinCost(t *testing.T) {
	m := DefaultModel()
	c := m.HashJoinCost(100, 200, 1000, 2000)
	if c <= 300 {
		t.Error("hash join must add build and probe cost")
	}
}

func TestMisestimationFlipsPlanChoice(t *testing.T) {
	// The mechanism behind the paper's Section 8: if the optimizer believes
	// the outer has ~0 rows, nested loops with an expensive inner looks
	// cheap; with the true row count, sort-merge wins. This is how wrong
	// estimates become slow plans.
	m := DefaultModel()
	innerRescan := m.ScanCost(100000, 16)
	outerCost := m.ScanCost(100, 16)
	innerCost := innerRescan

	nlBelieved := m.NestedLoopCost(outerCost, 4e-8, innerRescan)
	smBelieved := sortMerge(m, outerCost, innerCost, 4e-8, 100000, 16, 16)
	if nlBelieved >= smBelieved {
		t.Errorf("with a tiny estimate NL (%g) should beat SM (%g)", nlBelieved, smBelieved)
	}
	nlTrue := m.NestedLoopCost(outerCost, 100, innerRescan)
	smTrue := sortMerge(m, outerCost, innerCost, 100, 100000, 16, 16)
	if nlTrue <= smTrue {
		t.Errorf("with the true estimate SM (%g) should beat NL (%g)", smTrue, nlTrue)
	}
}

// Property: all costs are non-negative and finite for sane inputs.
func TestCostsNonNegativeProperty(t *testing.T) {
	m := DefaultModel()
	f := func(rowsRaw uint32, widthRaw uint8) bool {
		rows := float64(rowsRaw % 10_000_000)
		width := int(widthRaw%64) + 1
		return m.ScanCost(rows, width) >= 0 &&
			m.SortCost(rows, width) >= 0 &&
			m.Pages(rows, width) >= 0 &&
			m.NestedLoopCost(1, rows, 10) >= 0 &&
			sortMerge(m, 1, 1, rows, rows, width, width) >= 0 &&
			m.HashJoinCost(1, 1, rows, rows) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
