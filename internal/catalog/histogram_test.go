package catalog

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func uniformValues(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i)
	}
	return out
}

func TestHistogramKindString(t *testing.T) {
	if EquiWidth.String() != "equi-width" || EquiDepth.String() != "equi-depth" {
		t.Error("kind names wrong")
	}
	if HistogramKind(9).String() != "unknown" {
		t.Error("unknown kind name wrong")
	}
}

func TestEquiDepthConstruction(t *testing.T) {
	h, err := NewEquiDepthHistogram(uniformValues(100), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Buckets) != 5 {
		t.Fatalf("buckets = %d, want 5", len(h.Buckets))
	}
	for _, b := range h.Buckets {
		if b.Count != 20 {
			t.Errorf("equi-depth bucket count = %g, want 20", b.Count)
		}
	}
}

// Equi-width histograms arrive only through the stats codec; an empty one
// and a one-value one estimate like their equi-depth counterparts.
func TestEquiWidthEmptyAndConstant(t *testing.T) {
	h := &Histogram{Kind: EquiWidth}
	if h.SelectivityLT(5) != 0 || h.SelectivityEQ(5) != 0 {
		t.Error("empty histogram selectivity should be 0")
	}
	h = &Histogram{Kind: EquiWidth, Total: 3, Buckets: []Bucket{{Lo: 7, Hi: 7, Count: 3, Distinct: 1}}}
	if got := h.SelectivityEQ(7); got != 1 {
		t.Errorf("SelectivityEQ(7) = %g, want 1", got)
	}
	if got := h.SelectivityEQ(8); got != 0 {
		t.Errorf("SelectivityEQ(8) = %g, want 0", got)
	}
	if got := h.SelectivityLE(7); got != 1 {
		t.Errorf("SelectivityLE(7) = %g, want 1", got)
	}
}

func TestEquiDepthSkewedRuns(t *testing.T) {
	// 90 copies of 1 plus 10 distinct tail values; a value must not straddle
	// buckets, so the run of 1s must land in one bucket.
	var vals []float64
	for i := 0; i < 90; i++ {
		vals = append(vals, 1)
	}
	for i := 0; i < 10; i++ {
		vals = append(vals, float64(10+i))
	}
	h, err := NewEquiDepthHistogram(vals, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range h.Buckets {
		if b.Lo <= 1 && 1 <= b.Hi && b.Lo != b.Hi && b.Hi != 1 {
			t.Errorf("value 1 straddles bucket [%g,%g]", b.Lo, b.Hi)
		}
	}
	if got := h.SelectivityEQ(1); math.Abs(got-0.9) > 0.05 {
		t.Errorf("SelectivityEQ(1) = %g, want ~0.9", got)
	}
}

func TestEquiDepthErrors(t *testing.T) {
	if _, err := NewEquiDepthHistogram(uniformValues(5), -1); err == nil {
		t.Error("negative buckets should error")
	}
	if _, err := NewEquiDepthHistogram([]float64{math.NaN()}, 2); err == nil {
		t.Error("NaN should error")
	}
	h, err := NewEquiDepthHistogram(nil, 3)
	if err != nil || len(h.Buckets) != 0 {
		t.Error("empty input should give empty histogram")
	}
}

func TestSelectivityLTUniform(t *testing.T) {
	h, _ := NewEquiDepthHistogram(uniformValues(1000), 10)
	cases := []struct {
		c    float64
		want float64
		tol  float64
	}{
		{0, 0, 0.001},
		{500, 0.5, 0.01},
		{999.01, 1, 0.001},
		{2000, 1, 0},
		{-5, 0, 0},
	}
	for _, cse := range cases {
		if got := h.SelectivityLT(cse.c); math.Abs(got-cse.want) > cse.tol {
			t.Errorf("SelectivityLT(%g) = %g, want ~%g", cse.c, got, cse.want)
		}
	}
}

func TestSelectivityRangeAndComparisons(t *testing.T) {
	h, _ := NewEquiDepthHistogram(uniformValues(1000), 20)
	if got := h.SelectivityGT(899.5); math.Abs(got-0.1) > 0.02 {
		t.Errorf("GT(899.5) = %g, want ~0.1", got)
	}
	if got := h.SelectivityGE(900); math.Abs(got-0.1) > 0.02 {
		t.Errorf("GE(900) = %g, want ~0.1", got)
	}
	if got := h.SelectivityLE(99); math.Abs(got-0.1) > 0.02 {
		t.Errorf("LE(99) = %g, want ~0.1", got)
	}
}

func TestSelectivityEQUniform(t *testing.T) {
	h, _ := NewEquiDepthHistogram(uniformValues(1000), 10)
	if got := h.SelectivityEQ(500); math.Abs(got-0.001) > 0.0005 {
		t.Errorf("EQ(500) = %g, want ~0.001", got)
	}
	if h.SelectivityEQ(-1) != 0 || h.SelectivityEQ(5000) != 0 {
		t.Error("EQ outside range should be 0")
	}
	// Top edge belongs to the last bucket.
	if h.SelectivityEQ(999) == 0 {
		t.Error("EQ(max) should be nonzero")
	}
}

func TestHistogramClone(t *testing.T) {
	h, _ := NewEquiDepthHistogram(uniformValues(10), 2)
	cl := h.Clone()
	cl.Buckets[0].Count = 999
	if h.Buckets[0].Count == 999 {
		t.Error("Clone must deep-copy buckets")
	}
}

func TestHistogramString(t *testing.T) {
	h, _ := NewEquiDepthHistogram(uniformValues(10), 2)
	s := h.String()
	if !strings.Contains(s, "equi-depth") || !strings.Contains(s, "2 buckets") {
		t.Errorf("String() = %q", s)
	}
}

// Property: selectivities are always within [0,1] and LT is monotone
// non-decreasing in c over random data.
func TestSelectivityMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Floor(rng.Float64() * 100)
		}
		h, err := NewEquiDepthHistogram(vals, 1+rng.Intn(16))
		if err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for c := -10.0; c <= 110; c += 5 {
			s := h.SelectivityLT(c)
			if s < 0 || s > 1 {
				t.Fatalf("selectivity out of range: %g", s)
			}
			if s < prev-1e-9 {
				t.Fatalf("SelectivityLT not monotone at %g: %g < %g", c, s, prev)
			}
			prev = s
		}
	}
}

// Property: for any int-valued dataset, LE(c) >= LT(c) and GT + LE == 1
// (within float tolerance).
func TestSelectivityComplementProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(200)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(rng.Intn(50))
		}
		h, err := NewEquiDepthHistogram(vals, 8)
		if err != nil {
			return false
		}
		for c := -2.0; c < 55; c += 3.5 {
			if h.SelectivityLE(c) < h.SelectivityLT(c)-1e-9 {
				return false
			}
			if math.Abs(h.SelectivityGT(c)+h.SelectivityLE(c)-1) > 1e-6 &&
				h.SelectivityLE(c) < 1 { // clamping can break exact complement at the top
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// On a dense integer column (every value of lo..hi, each reps times) the
// four range selectivities are exact at every integer c, so equivalent
// integer bounds agree: v > c is v >= c+1, and v < c is v <= c-1.
func TestRangeSelectivityExactOnDenseIntegers(t *testing.T) {
	for _, tc := range []struct{ lo, hi, reps, buckets int }{
		{0, 9, 1, 2}, {0, 999, 1, 10}, {-50, 49, 3, 7}, {1, 64, 2, 5},
	} {
		var vals []float64
		for v := tc.lo; v <= tc.hi; v++ {
			for i := 0; i < tc.reps; i++ {
				vals = append(vals, float64(v))
			}
		}
		h, err := NewEquiDepthHistogram(vals, tc.buckets)
		if err != nil {
			t.Fatal(err)
		}
		share := func(keep func(v float64) bool) float64 {
			n := 0
			for _, v := range vals {
				if keep(v) {
					n++
				}
			}
			return float64(n) / float64(len(vals))
		}
		for c := float64(tc.lo - 2); c <= float64(tc.hi+2); c++ {
			lt, le, gt, ge := h.SelectivityLT(c), h.SelectivityLE(c), h.SelectivityGT(c), h.SelectivityGE(c)
			if want := share(func(v float64) bool { return v < c }); lt != want {
				t.Errorf("%+v: LT(%g) = %g, want %g", tc, c, lt, want)
			}
			if want := share(func(v float64) bool { return v <= c }); le != want {
				t.Errorf("%+v: LE(%g) = %g, want %g", tc, c, le, want)
			}
			if want := share(func(v float64) bool { return v > c }); gt != want {
				t.Errorf("%+v: GT(%g) = %g, want %g", tc, c, gt, want)
			}
			if want := share(func(v float64) bool { return v >= c }); ge != want {
				t.Errorf("%+v: GE(%g) = %g, want %g", tc, c, ge, want)
			}
			if gt != h.SelectivityGE(c+1) || lt != h.SelectivityLE(c-1) {
				t.Errorf("%+v: GT(%g) = %g, GE(%g) = %g; LT(%g) = %g, LE(%g) = %g",
					tc, c, gt, c+1, h.SelectivityGE(c+1), c, lt, c-1, h.SelectivityLE(c-1))
			}
		}
	}
}
