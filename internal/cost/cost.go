// Package cost provides a Selinger-style page-based cost model for query
// evaluation plans. The absolute numbers are abstract cost units (roughly,
// page reads plus weighted per-tuple CPU); what matters for the
// reproduction is that the model makes the optimizer's plan choice depend
// on the estimated intermediate result sizes, so that bad estimates turn
// into bad plans exactly as in the paper's Section 8 experiment.
package cost

import "math"

// Model holds the cost parameters. The zero value is unusable; use
// DefaultModel.
type Model struct {
	// PageSize is the page size in bytes used to convert row widths into
	// page counts.
	PageSize float64
	// SeqPageCost is the cost of reading one page sequentially.
	SeqPageCost float64
	// CPUTupleCost is the cost of processing one tuple.
	CPUTupleCost float64
	// CPUCompareCost is the cost of one comparison (join predicate check,
	// sort comparison).
	CPUCompareCost float64
}

// DefaultModel returns parameters resembling a classic disk-based system:
// 4 KiB pages, sequential page reads dominating CPU.
func DefaultModel() *Model {
	return &Model{
		PageSize:       4096,
		SeqPageCost:    1.0,
		CPUTupleCost:   0.01,
		CPUCompareCost: 0.005,
	}
}

// Pages converts an estimated row count and width into a page count (at
// least 1 for a non-empty relation).
func (m *Model) Pages(rows float64, width int) float64 {
	if rows <= 0 {
		return 0
	}
	w := float64(width)
	if w <= 0 {
		w = 8
	}
	perPage := math.Floor(m.PageSize / w)
	if perPage < 1 {
		perPage = 1
	}
	return math.Max(1, math.Ceil(rows/perPage))
}

// ScanCost is the cost of one full sequential scan of a relation of the
// given size, applying trivial filters (per-tuple CPU).
func (m *Model) ScanCost(rows float64, width int) float64 {
	return m.Pages(rows, width)*m.SeqPageCost + math.Max(0, rows)*m.CPUTupleCost
}

// SortCost is the cost of sorting rows of the given width:
// read + n·log₂(n) comparisons.
func (m *Model) SortCost(rows float64, width int) float64 {
	if rows <= 1 {
		return m.ScanCost(rows, width)
	}
	return m.ScanCost(rows, width) + rows*math.Log2(rows)*m.CPUCompareCost
}

// NestedLoopCost is the cost of a tuple-at-a-time nested-loops join where
// the inner input is re-evaluated for each outer row (no materialization),
// as in the classic System R formulation: cost(outer) + ‖outer‖·cost(inner
// rescan). innerRescan is the cost of producing the inner once.
func (m *Model) NestedLoopCost(outerCost, outerRows, innerRescan float64) float64 {
	return outerCost + math.Max(0, outerRows)*innerRescan
}

// SortMergeCost is the cost of sorting both inputs and merging them:
// cost(outer) + cost(inner) + sort costs + merge CPU over both inputs. The
// sort costs are the inputs' SortTerms, which a search computes once per
// input rather than once per pair.
func (m *Model) SortMergeCost(outerCost, innerCost, outerRows, innerRows, outerSort, innerSort float64) float64 {
	merge := (math.Max(0, outerRows) + math.Max(0, innerRows)) * m.CPUCompareCost
	return outerCost + innerCost + outerSort + innerSort + merge
}

// SortTerm is what sorting an input of the given size adds to SortMergeCost.
func (m *Model) SortTerm(rows float64, width int) float64 {
	return math.Max(0, m.SortCost(rows, width)-m.ScanCost(rows, width))
}

// HashJoinCost is the cost of building a hash table on the inner input and
// probing it with the outer: cost(outer) + cost(inner) + build + probe CPU.
func (m *Model) HashJoinCost(outerCost, innerCost, outerRows, innerRows float64) float64 {
	build := math.Max(0, innerRows) * m.CPUTupleCost * 2
	probe := math.Max(0, outerRows) * m.CPUTupleCost
	return outerCost + innerCost + build + probe
}

// IndexNLCost is the cost of an index nested-loops join: the outer is
// produced once, and each outer row probes an ordered index on the inner
// (one page touch plus a logarithmic search) and fetches its expected
// matches.
func (m *Model) IndexNLCost(outerCost, outerRows, innerRows, matchesPerProbe float64) float64 {
	if outerRows < 0 {
		outerRows = 0
	}
	logN := 1.0
	if innerRows > 2 {
		logN = math.Log2(innerRows)
	}
	probe := m.SeqPageCost + logN*m.CPUCompareCost + math.Max(0, matchesPerProbe)*m.CPUTupleCost
	return outerCost + outerRows*probe
}
