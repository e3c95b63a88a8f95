package catalog

import (
	"errors"
	"fmt"
	"math"
	"slices"
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
// buckets over values, which it sorts (equiDepth).
func NewEquiDepthHistogram(values []float64, buckets int) (*Histogram, error) {
	if buckets <= 0 {
		return nil, fmt.Errorf("catalog: histogram needs at least 1 bucket, got %d", buckets)
	}
	if slices.ContainsFunc(values, math.IsNaN) {
		return nil, errNaN
	}
	sorted := slices.Clone(values)
	sort.Float64s(sorted)
	return equiDepth(len(sorted), buckets, func(i int) float64 { return sorted[i] }), nil
}

// errNaN rejects a column or histogram input holding a NaN, which has no
// place in an order.
var errNaN = errors.New("catalog: NaN value")

// equiDepth cuts the n ascending values at(0), ..., at(n-1) into at most
// buckets equi-depth buckets. Bucket boundaries fall on value boundaries so
// a value never straddles two buckets.
func equiDepth(n, buckets int, at func(int) float64) *Histogram {
	h := &Histogram{Kind: EquiDepth, Total: float64(n)}
	if n == 0 {
		return h
	}
	depth := float64(n) / float64(buckets)
	if depth < 1 {
		depth = 1
	}
	h.Buckets = make([]Bucket, 0, min(n, buckets))
	i := 0
	for i < n {
		target := int(math.Round(float64(len(h.Buckets)+1) * depth))
		if target <= i {
			target = i + 1
		}
		if target > n {
			target = n
		}
		// Extend to the end of the run of equal values so a value never spans
		// buckets.
		for target < n && at(target) == at(target-1) {
			target++
		}
		b := Bucket{Lo: at(i), Hi: at(target - 1), Count: float64(target - i), Distinct: 1}
		for j := i + 1; j < target; j++ {
			if at(j) != at(j-1) {
				b.Distinct++
			}
		}
		h.Buckets = append(h.Buckets, b)
		i = target
	}
	return h
}

// SelectivityLT estimates the fraction of rows with value < c. Each
// bucket's Distinct values are taken as evenly spaced points from Lo to
// Hi, each holding Count/Distinct rows, so a bucket of consecutive
// integers is estimated exactly and the value at Hi is not counted below
// Hi.
func (h *Histogram) SelectivityLT(c float64) float64 { return h.fraction(h.rowsBelow(c)) }

// SelectivityLE estimates the fraction of rows with value <= c: those
// below c plus the point mass SelectivityEQ puts at c.
func (h *Histogram) SelectivityLE(c float64) float64 {
	return h.fraction(h.rowsBelow(c) + h.rowsAt(c))
}

// SelectivityGT estimates the fraction of rows with value > c: the rest
// of SelectivityLE's.
func (h *Histogram) SelectivityGT(c float64) float64 {
	return h.fraction(h.Total - h.rowsBelow(c) - h.rowsAt(c))
}

// SelectivityGE estimates the fraction of rows with value >= c: the rest
// of SelectivityLT's.
func (h *Histogram) SelectivityGE(c float64) float64 {
	return h.fraction(h.Total - h.rowsBelow(c))
}

// SelectivityEQ estimates the fraction of rows with value = c, using the
// containing bucket's count/distinct ratio (uniform-within-bucket).
func (h *Histogram) SelectivityEQ(c float64) float64 { return h.fraction(h.rowsAt(c)) }

// fraction turns a row count into a share of the summarized rows.
func (h *Histogram) fraction(rows float64) float64 {
	if h.Total == 0 {
		return 0
	}
	return min(max(rows/h.Total, 0), 1)
}

// rowsBelow estimates the rows with value < c (see SelectivityLT).
func (h *Histogram) rowsBelow(c float64) float64 {
	var rows float64
	for _, b := range h.Buckets {
		switch {
		case c <= b.Lo:
			// nothing from this bucket or later ones
		case c > b.Hi:
			rows += b.Count
		default:
			// Lo < c <= Hi, so Hi > Lo. Point i sits at
			// Lo + i·(Hi−Lo)/(d−1); the ones below c are i < k.
			d := math.Max(b.Distinct, 1)
			k := math.Max(1, math.Ceil((c-b.Lo)*(d-1)/(b.Hi-b.Lo)))
			rows += b.Count * math.Min(k, d) / d
		}
	}
	return rows
}

// rowsAt estimates the rows with value = c: one distinct value's share of
// the first bucket whose closed range [Lo, Hi] holds c. Equi-depth buckets
// are disjoint; for equi-width the shared boundary lands in the lower
// bucket, an acceptable estimator approximation.
func (h *Histogram) rowsAt(c float64) float64 {
	for _, b := range h.Buckets {
		if c < b.Lo || c > b.Hi {
			continue
		}
		if b.Distinct <= 0 {
			return 0
		}
		return b.Count / b.Distinct
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
