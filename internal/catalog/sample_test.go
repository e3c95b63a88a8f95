package catalog

import (
	"math"
	"testing"

	"repro/internal/storage"
)

func intTable(t *testing.T, name string, vals []int64) *storage.Table {
	t.Helper()
	tbl := storage.NewTable(name, storage.MustSchema(storage.ColumnDef{Name: "v", Type: storage.TypeInt64}))
	for _, v := range vals {
		tbl.MustAppendRow(storage.Int64(v))
	}
	return tbl
}

func TestAnalyzeSampleFullCoverageIsExact(t *testing.T) {
	c := New()
	tbl := intTable(t, "t", []int64{1, 2, 3, 3, 3, 4})
	ts, err := c.Analyze(tbl, AnalyzeOptions{SampleRows: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Card != 6 {
		t.Errorf("card = %g", ts.Card)
	}
	if got := ts.Column("v").Distinct; got != 4 {
		t.Errorf("full-coverage distinct = %g, want exact 4", got)
	}
	if ts.Column("v").Min != 1 || ts.Column("v").Max != 4 {
		t.Errorf("range [%g,%g]", ts.Column("v").Min, ts.Column("v").Max)
	}
	if c.Data("t") == nil {
		t.Error("backing data should register")
	}
}

func TestAnalyzeSampleValidation(t *testing.T) {
	c := New()
	if _, err := c.Analyze(nil, AnalyzeOptions{SampleRows: 10}); err == nil {
		t.Error("nil table should error")
	}
	if _, err := c.Analyze(intTable(t, "t", []int64{1}), AnalyzeOptions{SampleRows: -1}); err == nil {
		t.Error("negative sample should error")
	}
}

func TestAnalyzeSampleChaoEstimate(t *testing.T) {
	// 100000 rows over 10000 distinct uniform values; a 5000-row sample
	// sees roughly 3940 distinct. Chao should push the estimate much closer
	// to 10000 than the raw sample count.
	c := New()
	n := 100000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64((i * 7919) % 10000) // deterministic spread over 10000 values
	}
	tbl := intTable(t, "big", vals)
	ts, err := c.Analyze(tbl, AnalyzeOptions{SampleRows: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	d := ts.Column("v").Distinct
	if d < 5000 || d > 20000 {
		t.Errorf("Chao estimate %g not in a plausible range around 10000", d)
	}
	if d > float64(n) {
		t.Errorf("estimate must not exceed the row count")
	}
}

func TestAnalyzeSampleWithHistogram(t *testing.T) {
	c := New()
	n := 10000
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 100)
	}
	ts, err := c.Analyze(intTable(t, "h", vals), AnalyzeOptions{SampleRows: 1000, Seed: 7, HistogramBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	h := ts.Column("v").Hist
	if h == nil {
		t.Fatal("histogram expected")
	}
	// Scaled totals approximate the full table.
	if math.Abs(h.Total-float64(n)) > 1 {
		t.Errorf("histogram total = %g, want %d", h.Total, n)
	}
	// Uniform data: LT(50) ≈ 0.5 from the sampled histogram.
	if got := h.SelectivityLT(50); math.Abs(got-0.5) > 0.08 {
		t.Errorf("sampled LT(50) = %g, want ≈0.5", got)
	}
}

func TestAnalyzeSampleNullScaling(t *testing.T) {
	c := New()
	tbl := storage.NewTable("n", storage.MustSchema(storage.ColumnDef{Name: "v", Type: storage.TypeInt64}))
	for i := 0; i < 1000; i++ {
		if i%4 == 0 {
			tbl.MustAppendRow(storage.Null(storage.TypeInt64))
		} else {
			tbl.MustAppendRow(storage.Int64(int64(i)))
		}
	}
	ts, err := c.Analyze(tbl, AnalyzeOptions{SampleRows: 200, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// ~25% NULLs, scaled to ~250.
	if math.Abs(ts.Column("v").NullCount-250) > 75 {
		t.Errorf("scaled null count = %g, want ≈250", ts.Column("v").NullCount)
	}
}

func TestChaoEstimateEdgeCases(t *testing.T) {
	// No singletons: estimate equals observed.
	freq := map[string]int{"a": 3, "b": 5}
	if got := chaoEstimate(freq, 8, 100); got != 2 {
		t.Errorf("no-singleton estimate = %g, want 2", got)
	}
	// Singletons but no doubletons: bias-corrected fallback.
	freq = map[string]int{"a": 1, "b": 1, "c": 3}
	got := chaoEstimate(freq, 5, 1000)
	if got < 3 {
		t.Errorf("fallback should not shrink below observed: %g", got)
	}
	// Estimate capped at population.
	freq = map[string]int{}
	for i := 0; i < 50; i++ {
		freq[string(rune('a'+i))] = 1
	}
	if got := chaoEstimate(freq, 50, 60); got > 60 {
		t.Errorf("estimate %g exceeds population", got)
	}
}

func TestReservoirProperties(t *testing.T) {
	// k >= n returns everything.
	all := reservoir(5, 10, 1)
	if len(all) != 5 {
		t.Errorf("full reservoir = %v", all)
	}
	// Exactly k distinct, sorted, in range.
	s := reservoir(1000, 100, 2)
	if len(s) != 100 {
		t.Fatalf("sample size = %d", len(s))
	}
	seen := map[int]bool{}
	for i, v := range s {
		if v < 0 || v >= 1000 {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate index %d", v)
		}
		seen[v] = true
		if i > 0 && s[i-1] > v {
			t.Fatal("not sorted")
		}
	}
	// Uniformity smoke test: mean of sampled indices ≈ 500.
	sum := 0
	for _, v := range s {
		sum += v
	}
	mean := float64(sum) / 100
	if math.Abs(mean-500) > 120 {
		t.Errorf("sample mean %g far from 500", mean)
	}
}
