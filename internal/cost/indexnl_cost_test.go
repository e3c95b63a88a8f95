package cost

import "testing"

func TestIndexNLCost(t *testing.T) {
	m := DefaultModel()
	// More outer rows cost more.
	if m.IndexNLCost(10, 1000, 100000, 2) <= m.IndexNLCost(10, 10, 100000, 2) {
		t.Error("IndexNL cost should grow with outer rows")
	}
	// More matches per probe cost more.
	if m.IndexNLCost(10, 100, 100000, 50) <= m.IndexNLCost(10, 100, 100000, 1) {
		t.Error("IndexNL cost should grow with matches per probe")
	}
	// Negative estimates clamp.
	if got := m.IndexNLCost(5, -10, 100, -3); got != 5 {
		t.Errorf("clamped cost = %g, want outer cost only", got)
	}
	// Tiny inner avoids the log term going negative.
	if m.IndexNLCost(0, 1, 1, 0) <= 0 {
		t.Error("degenerate inner should still cost a probe")
	}
}

func TestIndexProbeBeatsRescanForSelectiveJoins(t *testing.T) {
	// The design point: for a selective join (few matches per probe) over a
	// big inner, index probes beat both a full rescan per outer row and a
	// full sort of the inner.
	m := DefaultModel()
	outerCost := m.ScanCost(100, 16)
	innerScan := m.ScanCost(1_000_000, 16)
	idx := m.IndexNLCost(outerCost, 100, 1_000_000, 3)
	nl := m.NestedLoopCost(outerCost, 100, innerScan)
	sm := sortMerge(m, outerCost, innerScan, 100, 1_000_000, 16, 16)
	if idx >= nl {
		t.Errorf("index (%g) should beat rescan NL (%g)", idx, nl)
	}
	if idx >= sm {
		t.Errorf("index (%g) should beat sort-merge (%g) for a selective probe", idx, sm)
	}
	// But for an unselective join producing huge outputs over a small
	// inner, sort-merge wins.
	idx2 := m.IndexNLCost(outerCost, 100000, 500, 50)
	sm2 := sortMerge(m, m.ScanCost(100000, 16), m.ScanCost(500, 16), 100000, 500, 16, 16)
	if sm2 >= idx2 {
		t.Errorf("sort-merge (%g) should beat index probing (%g) when probes dominate", sm2, idx2)
	}
}
