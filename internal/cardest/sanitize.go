package cardest

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/catalog"
	"repro/internal/selest"
)

// Graceful degradation for broken catalog statistics. Production catalogs
// rot: a botched ANALYZE, a corrupted stats import, or a fault-injected
// failure can leave NaN, negative, or zero statistics behind. Rather than
// propagate garbage into every downstream estimate (NaN selectivities
// poison whole plans), the estimator repairs a per-query copy of the
// statistics to the paper's own defaults before the preliminary phase runs.
// The repair is per-query and never mutates the shared catalog.
const (
	// DefaultTableCard replaces a missing/NaN/negative table cardinality.
	// It is the ‖S‖=1000 "small table" of the paper's Section 8 catalog — a
	// deliberately modest guess, as Selinger-style systems default modestly
	// when statistics are absent.
	DefaultTableCard = 1000
	// DefaultEqSelectivity is the classic System R default selectivity for
	// an equality predicate with unknown statistics (1/10, Selinger et al.
	// 1979). A repaired column cardinality is derived from it: d = 1/S.
	DefaultEqSelectivity = 1.0 / 10.0
	// defaultRowWidth replaces a non-positive row width (one int64 column).
	defaultRowWidth = 8
)

// defaultDistinct is the fallback column cardinality for a table of card
// rows: the urn-model expectation of filling d = 1/DefaultEqSelectivity
// urns with card balls (Section 5's surviving-distinct formula). For large
// tables this converges to 10 — i.e. the Selinger 1/10 equality default —
// while small tables degrade smoothly to d ≤ ‖R‖.
func defaultDistinct(card float64) float64 {
	d := selest.UrnDistinctCeil(1/DefaultEqSelectivity, card)
	if d < 1 {
		d = 1
	}
	return d
}

// invalid reports statistics values estimation formulas cannot consume.
func invalid(v float64) bool {
	return math.IsNaN(v) || math.IsInf(v, 0) || v < 0
}

// sanitizeStats returns the statistics of the table the query calls name,
// repaired, and appends a human-readable warning per repair to warns.
// Healthy statistics are returned as they are; the first repair copies
// them, so the shared catalog is never written. A zero table cardinality is
// legal (an empty table estimates to zero everywhere); a zero column
// cardinality on a non-empty table is not (it would zero or explode
// selectivities) and falls back to the urn default.
func sanitizeStats(ts *catalog.TableStats, name string, warns *[]string) *catalog.TableStats {
	out := ts
	repair := func() *catalog.TableStats {
		if out == ts {
			out = ts.Clone()
		}
		return out
	}
	if invalid(ts.Card) {
		*warns = append(*warns, fmt.Sprintf(
			"table %s: cardinality %g is invalid; using default %d", name, ts.Card, DefaultTableCard))
		repair().Card = DefaultTableCard
	}
	if ts.RowWidth <= 0 {
		repair().RowWidth = defaultRowWidth
	}
	card := out.Card
	// Column warnings are reported in column-key order, whatever order the
	// map is walked in.
	type columnWarning struct{ key, text string }
	var colWarns []columnWarning
	warn := func(k, text string) { colWarns = append(colWarns, columnWarning{k, text}) }
	for k, cs := range ts.Columns {
		d := cs.Distinct
		switch {
		case invalid(d) || (d == 0 && card > 0):
			fallback := defaultDistinct(card)
			warn(k, fmt.Sprintf(
				"table %s column %s: column cardinality %g is invalid; using urn default %g (Selinger 1/%g equality selectivity)",
				name, cs.Name, d, fallback, 1/DefaultEqSelectivity))
			repair().Columns[k].Distinct = fallback
		case d > card && card > 0:
			warn(k, fmt.Sprintf(
				"table %s column %s: column cardinality %g exceeds table cardinality %g; clamping",
				name, cs.Name, d, card))
			repair().Columns[k].Distinct = card
		}
		if invalid(cs.NullCount) {
			repair().Columns[k].NullCount = 0
		}
		if cs.HasRange && (math.IsNaN(cs.Min) || math.IsNaN(cs.Max) || cs.Min > cs.Max) {
			// An unusable range disables range statistics rather than feeding
			// NaN interpolation into local-predicate selectivities. Empty
			// tables degrade silently: their [0, −1] range is a benign
			// artifact of declaring zero distinct values.
			if card > 0 {
				warn(k, fmt.Sprintf(
					"table %s column %s: min/max range [%g, %g] is invalid; dropping range statistics",
					name, cs.Name, cs.Min, cs.Max))
			}
			repair().Columns[k].HasRange = false
		}
	}
	slices.SortStableFunc(colWarns, func(a, b columnWarning) int { return strings.Compare(a.key, b.key) })
	for _, w := range colWarns {
		*warns = append(*warns, w.text)
	}
	return out
}
