package selest

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
)

// Section 5's worked numbers: d_x = 10000, ‖R‖ = 100000, ‖R‖′ = 50000 give
// the urn estimate 9933 whereas the linear rule gives 5000; at ‖R‖′ = ‖R‖
// the urn estimate is the full 10000.
func TestUrnModelPaperSection5(t *testing.T) {
	if got := UrnDistinctCeil(10000, 50000); got != 9933 {
		t.Errorf("urn(10000, 50000) = %g, want 9933 (paper Section 5)", got)
	}
	if got := LinearDistinct(10000, 100000, 50000); got != 5000 {
		t.Errorf("linear(10000, 100000, 50000) = %g, want 5000", got)
	}
	if got := UrnDistinctCeil(10000, 100000); got != 10000 {
		t.Errorf("urn(10000, 100000) = %g, want 10000", got)
	}
}

// Section 6's worked numbers: ⌈10·(1−(1−1/10)^20)⌉ = 9.
func TestUrnModelPaperSection6(t *testing.T) {
	if got := UrnDistinctCeil(10, 20); got != 9 {
		t.Errorf("urn(10, 20) = %g, want 9 (paper Section 6)", got)
	}
}

func TestUrnDistinctEdgeCases(t *testing.T) {
	if UrnDistinct(0, 10) != 0 || UrnDistinct(10, 0) != 0 || UrnDistinct(-1, 5) != 0 {
		t.Error("non-positive inputs should give 0")
	}
	if UrnDistinct(1, 100) != 1 {
		t.Error("single urn is always hit")
	}
	if got := UrnDistinct(100, math.Inf(1)); got != 100 {
		t.Errorf("infinite balls fill all urns: %g", got)
	}
	if got := UrnDistinct(1000, 1); math.Abs(got-1) > 1e-9 {
		t.Errorf("one ball hits exactly one urn: %g", got)
	}
	// Capped at k: can't observe more distinct values than rows.
	if got := UrnDistinct(1e9, 3); got > 3 {
		t.Errorf("distinct capped at rows: %g", got)
	}
}

func TestUrnDistinctLargeValuesStable(t *testing.T) {
	// With d = 1e12 and k = 1e6, naive (1-1/d)^k would suffer float
	// cancellation; result must be very close to k.
	got := UrnDistinct(1e12, 1e6)
	if math.Abs(got-1e6)/1e6 > 1e-3 {
		t.Errorf("urn(1e12, 1e6) = %g, want ≈1e6", got)
	}
}

func TestLinearDistinctEdges(t *testing.T) {
	if LinearDistinct(10, 0, 5) != 0 || LinearDistinct(0, 10, 5) != 0 || LinearDistinct(10, 10, 0) != 0 {
		t.Error("degenerate linear inputs should give 0")
	}
	if LinearDistinct(10, 100, 200) != 10 {
		t.Error("linear capped at d")
	}
	if LinearDistinct(10, 1000, 1) != 1 {
		t.Error("linear floored at 1")
	}
}

func TestReduceDistinct(t *testing.T) {
	// Keeping all rows keeps all distinct values.
	if got := ReduceDistinct(50, 100, 100); got != 50 {
		t.Errorf("full retention: %g", got)
	}
	if got := ReduceDistinct(50, 100, 150); got != 50 {
		t.Errorf("k > n clamps: %g", got)
	}
	if got := ReduceDistinct(50, 100, 0); got != 0 {
		t.Errorf("no rows, no values: %g", got)
	}
	if got := ReduceDistinct(10000, 100000, 50000); got != 9933 {
		t.Errorf("urn rule: %g", got)
	}
	// Floors at 1 when any row remains.
	if got := ReduceDistinct(10, 1000, 0.5); got != 1 {
		t.Errorf("tiny k floors at 1: %g", got)
	}
}

// Property: 0 <= urn(d,k) <= min(d,k); monotone in both arguments.
func TestUrnBoundsProperty(t *testing.T) {
	f := func(dRaw, kRaw uint16) bool {
		d, k := float64(dRaw%5000)+1, float64(kRaw%5000)+1
		v := UrnDistinct(d, k)
		if v < 0 || v > d+1e-9 || v > k+1e-9 {
			return false
		}
		// Monotonicity in k and d.
		if UrnDistinct(d, k+1) < v-1e-9 {
			return false
		}
		if UrnDistinct(d+1, k) < v-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: the urn expectation matches simulation within a few percent.
func TestUrnMatchesSimulationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, tc := range []struct{ d, k int }{{10, 20}, {100, 50}, {1000, 1000}, {50, 500}} {
		const trials = 200
		sum := 0.0
		for tr := 0; tr < trials; tr++ {
			urns := make(map[int]struct{}, tc.d)
			for b := 0; b < tc.k; b++ {
				urns[rng.Intn(tc.d)] = struct{}{}
			}
			sum += float64(len(urns))
		}
		sim := sum / trials
		est := UrnDistinct(float64(tc.d), float64(tc.k))
		if math.Abs(sim-est)/est > 0.05 {
			t.Errorf("d=%d k=%d: urn estimate %g vs simulated %g", tc.d, tc.k, est, sim)
		}
	}
}

// The urn model against rows: over 200 seeded uniform columns of k rows
// drawn from a domain of d values, the mean number of distinct values is
// within 2% of UrnDistinct(d, k). The count comes from datagen's rows, not
// from any selest formula.
func TestUrnModelMatchesUniformColumns(t *testing.T) {
	const columns = 200
	for _, d := range []int{10, 100, 1000, 5000} {
		for _, k := range []int{1, 5, 50, 500, 5000} {
			spec := datagen.TableSpec{Name: "u", Rows: k, Columns: []datagen.ColumnSpec{
				{Name: "x", Dist: datagen.DistUniform, Domain: d},
			}}
			total := 0
			for seed := int64(0); seed < columns; seed++ {
				tbl, err := datagen.Generate(spec, seed)
				if err != nil {
					t.Fatal(err)
				}
				seen := make(map[float64]bool, k)
				for r := 0; r < tbl.NumRows(); r++ {
					seen[tbl.Value(r, 0).AsFloat()] = true
				}
				total += len(seen)
			}
			mean := float64(total) / columns
			urn := UrnDistinct(float64(d), float64(k))
			if rel := math.Abs(mean-urn) / urn; rel > 0.02 {
				t.Errorf("d=%d k=%d: mean distinct %.2f over %d columns, urn model %.2f (off by %.2f%%)",
					d, k, mean, columns, urn, 100*rel)
			}
		}
	}
}
