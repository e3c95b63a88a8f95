package optimizer

import (
	"strings"
	"testing"

	"repro/internal/cardest"
)

func TestFormatDot(t *testing.T) {
	o := newOptimizer(t, cardest.ELS())
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	dot := FormatDot(plan)
	if !strings.HasPrefix(dot, "digraph plan {") || !strings.HasSuffix(strings.TrimSpace(dot), "}") {
		t.Errorf("not a digraph:\n%s", dot)
	}
	if got := strings.Count(dot, "Scan "); got != 4 {
		t.Errorf("scans in dot = %d, want 4:\n%s", got, dot)
	}
	if got := strings.Count(dot, "->"); got != 6 {
		t.Errorf("edges = %d, want 6 (two per join):\n%s", got, dot)
	}
	if !strings.Contains(dot, "(filtered)") {
		t.Errorf("filtered scans should be marked:\n%s", dot)
	}
	// A single scan renders too.
	o2, _ := New(twoTableEstimator(t), PaperOptions())
	scanPlan, _ := o2.PlanForOrder([]string{"A"})
	single := FormatDot(scanPlan)
	if !strings.Contains(single, "Scan A") {
		t.Errorf("single scan dot:\n%s", single)
	}
}
