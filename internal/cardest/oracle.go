package cardest

import (
	"fmt"
	"sort"
)

// OracleSize computes the join result size for a set of tables directly
// from Equation 3, the closed form the paper proves Rule LS agrees with:
// for each equivalence class, the product of effective table cardinalities
// is divided by every participating column cardinality except the smallest;
// independent classes multiply. It is the ground truth the estimation rules
// are validated against (exact under the uniformity, containment and
// independence assumptions).
//
// The oracle requires the estimator's predicate set to be transitively
// closed (ELS configs are; for others the result is still Equation 3 over
// whatever classes the given predicates induce) and covers equality join
// predicates only — non-equality join predicates are outside Equation 3
// and make the oracle return an error.
func (e *Estimator) OracleSize(aliases []string) (float64, error) {
	if len(aliases) == 0 {
		return 0, fmt.Errorf("cardest: empty table set")
	}
	var inSet uint64
	size := 1.0
	for _, a := range aliases {
		t, ok := e.TableNumber(a)
		if !ok {
			return 0, fmt.Errorf("cardest: unknown table alias %q", a)
		}
		if inSet&(1<<t) != 0 {
			return 0, fmt.Errorf("cardest: duplicate alias %q", a)
		}
		inSet |= 1 << t
		size *= e.eff[t].Card
	}
	// Reject non-equality join predicates within the set.
	for _, jp := range e.joins {
		if !jp.eq && jp.tables&inSet == jp.tables {
			return 0, fmt.Errorf("cardest: oracle does not cover non-equality join predicate %s", e.preds[jp.pred])
		}
	}

	// For each equivalence class, gather one effective column cardinality
	// per participating table in the set. Multiple same-table members share
	// their (Section 6 folded) effective cardinality, so taking the minimum
	// per table is exact.
	groups, _ := e.classes.Groups()
	for _, class := range groups {
		perTable := make(map[int]float64)
		for _, id := range class {
			if c := e.cols[id]; inSet&(1<<c.table) != 0 {
				if cur, ok := perTable[c.table]; !ok || c.card < cur {
					perTable[c.table] = c.card
				}
			}
		}
		if len(perTable) < 2 {
			continue
		}
		ds := make([]float64, 0, len(perTable))
		for _, d := range perTable {
			ds = append(ds, d)
		}
		sort.Float64s(ds)
		for _, d := range ds[1:] {
			if d <= 0 {
				return 0, nil
			}
			size /= d
		}
	}
	return size, nil
}
