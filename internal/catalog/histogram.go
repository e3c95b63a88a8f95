package catalog

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// HistogramKind records how a histogram's buckets were constructed.
// ANALYZE builds equi-depth histograms; the stats codec carries either
// kind, and the selectivity methods read both the same way.
type HistogramKind int

const (
	// EquiWidth buckets split the value range into equal-width intervals.
	// Nothing in this module builds them; a stats file may carry them.
	EquiWidth HistogramKind = iota
	// EquiDepth buckets each hold (approximately) the same number of rows;
	// the construction of Piatetsky-Shapiro & Connell / Muralikrishna &
	// DeWitt cited by the paper.
	EquiDepth
)

// String names the histogram kind.
func (k HistogramKind) String() string {
	switch k {
	case EquiWidth:
		return "equi-width"
	case EquiDepth:
		return "equi-depth"
	default:
		return "unknown"
	}
}

// Bucket is one histogram bucket over the half-open interval [Lo, Hi),
// except the last bucket of a histogram which is closed: [Lo, Hi].
type Bucket struct {
	// Lo and Hi bound the bucket's value range.
	Lo, Hi float64
	// Count is the number of rows falling in the bucket.
	Count float64
	// Distinct is the number of distinct values in the bucket.
	Distinct float64
}

// Histogram summarizes the distribution of a numeric column. The paper
// (Section 2) needs uniformity only for join columns; local-predicate
// selectivities may use "data distribution information", which is what a
// histogram provides.
type Histogram struct {
	// Kind records how the buckets were constructed.
	Kind HistogramKind
	// Buckets are ordered, non-overlapping, and cover [min, max].
	Buckets []Bucket
	// Total is the total row count summarized (excludes NULLs).
	Total float64
}

// Clone returns a deep copy.
func (h *Histogram) Clone() *Histogram {
	out := &Histogram{Kind: h.Kind, Total: h.Total, Buckets: make([]Bucket, len(h.Buckets))}
	copy(out.Buckets, h.Buckets)
	return out
}

// NewEquiDepthHistogram builds an equi-depth histogram with at most buckets
// buckets. Bucket boundaries fall on value boundaries so a value never
// straddles two buckets.
func NewEquiDepthHistogram(values []float64, buckets int) (*Histogram, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("catalog: histogram needs at least 1 bucket, got %d", buckets)
	}
	if len(values) == 0 {
		return &Histogram{Kind: EquiDepth}, nil
	}
	sorted := make([]float64, len(values))
	copy(sorted, values)
	for _, v := range sorted {
		if math.IsNaN(v) {
			return nil, fmt.Errorf("catalog: NaN value in histogram input")
		}
	}
	sort.Float64s(sorted)
	n := len(sorted)
	depth := float64(n) / float64(buckets)
	if depth < 1 {
		depth = 1
	}
	var bs []Bucket
	i := 0
	for i < n {
		target := int(math.Round(float64(len(bs)+1) * depth))
		if target <= i {
			target = i + 1
		}
		if target > n {
			target = n
		}
		// Extend to the end of the run of equal values so a value never spans
		// buckets.
		for target < n && sorted[target] == sorted[target-1] {
			target++
		}
		b := Bucket{Lo: sorted[i], Hi: sorted[target-1], Count: float64(target - i)}
		d := 1.0
		for j := i + 1; j < target; j++ {
			if sorted[j] != sorted[j-1] {
				d++
			}
		}
		b.Distinct = d
		bs = append(bs, b)
		i = target
	}
	return &Histogram{Kind: EquiDepth, Buckets: bs, Total: float64(n)}, nil
}

// SelectivityLT estimates the fraction of rows with value < c, assuming
// uniform spread within each bucket.
func (h *Histogram) SelectivityLT(c float64) float64 {
	if h.Total == 0 || len(h.Buckets) == 0 {
		return 0
	}
	var rows float64
	for _, b := range h.Buckets {
		switch {
		case c <= b.Lo:
			// nothing from this bucket or later ones
		case c > b.Hi:
			rows += b.Count
		default:
			frac := 0.0
			if b.Hi > b.Lo {
				frac = (c - b.Lo) / (b.Hi - b.Lo)
			}
			rows += b.Count * frac
		}
	}
	return clamp01(rows / h.Total)
}

// SelectivityLE estimates the fraction of rows with value <= c.
func (h *Histogram) SelectivityLE(c float64) float64 {
	// <= c is < c plus the mass exactly at c; approximate the point mass by
	// one "distinct share" of the bucket containing c.
	return clamp01(h.SelectivityLT(c) + h.SelectivityEQ(c))
}

// SelectivityGT estimates the fraction of rows with value > c.
func (h *Histogram) SelectivityGT(c float64) float64 { return clamp01(1 - h.SelectivityLE(c)) }

// SelectivityGE estimates the fraction of rows with value >= c.
func (h *Histogram) SelectivityGE(c float64) float64 { return clamp01(1 - h.SelectivityLT(c)) }

// SelectivityEQ estimates the fraction of rows with value = c, using the
// containing bucket's count/distinct ratio (uniform-within-bucket).
func (h *Histogram) SelectivityEQ(c float64) float64 {
	if h.Total == 0 {
		return 0
	}
	for _, b := range h.Buckets {
		// Buckets are treated as closed [Lo, Hi] for point lookups; the first
		// containing bucket wins. Equi-depth buckets are genuinely closed and
		// disjoint; for equi-width the shared boundary lands in the lower
		// bucket, an acceptable estimator approximation.
		if c < b.Lo || c > b.Hi {
			continue
		}
		if b.Distinct <= 0 {
			return 0
		}
		return clamp01(b.Count / b.Distinct / h.Total)
	}
	return 0
}

// String renders the histogram compactly for EXPLAIN output.
func (h *Histogram) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s histogram, %d buckets, %g rows:", h.Kind, len(h.Buckets), h.Total)
	for _, bk := range h.Buckets {
		fmt.Fprintf(&b, " [%g,%g]#%g/%g", bk.Lo, bk.Hi, bk.Count, bk.Distinct)
	}
	return b.String()
}

func clamp01(x float64) float64 {
	switch {
	case x < 0:
		return 0
	case x > 1:
		return 1
	default:
		return x
	}
}
