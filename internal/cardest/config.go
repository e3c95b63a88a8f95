// Package cardest implements the paper's core contribution: incremental
// estimation of join result sizes. It provides the three selectivity-choice
// rules the paper analyzes — the multiplicative Rule M of Selinger et al.,
// the "intuitive" smallest-selectivity Rule SS, and the paper's
// largest-selectivity Rule LS — plus the representative-selectivity
// proposal of Section 3.3, over either the raw catalog statistics (the
// "standard algorithm") or the effective statistics of Algorithm ELS
// (local predicates folded per Section 5, single-table j-equivalent
// columns per Section 6).
//
// Algorithm ELS is the configuration {Rule LS, effective statistics,
// transitive closure}; Algorithm SM is {Rule M, standard statistics} and
// Algorithm SSS is {Rule SS, standard statistics}, as in Section 8.
package cardest

import "fmt"

// Rule selects how the selectivities of the eligible join predicates
// belonging to one equivalence class are combined at each incremental step.
type Rule int

const (
	// RuleM multiplies every eligible join selectivity (Section 3.3's
	// "multiplicative rule", standard since Selinger et al. [13]).
	RuleM Rule = iota
	// RuleSS uses the smallest selectivity in each equivalence-class group
	// (the intuitive-but-wrong choice of Section 3.3).
	RuleSS
	// RuleLS uses the largest selectivity in each group — the paper's new
	// rule (Section 7), provably consistent with Equation 3.
	RuleLS
	// RuleRepresentative uses one fixed selectivity per equivalence class
	// (the third proposal of Section 3.3, shown to admit no correct value).
	RuleRepresentative
)

// String names the rule as in the paper.
func (r Rule) String() string {
	switch r {
	case RuleM:
		return "M"
	case RuleSS:
		return "SS"
	case RuleLS:
		return "LS"
	case RuleRepresentative:
		return "REP"
	default:
		return "?"
	}
}

// Valid reports whether r is a defined rule.
func (r Rule) Valid() bool { return r >= RuleM && r <= RuleRepresentative }

// RepChoice picks the fixed selectivity used by RuleRepresentative for a
// class. The paper's Section 3.3 example tries both ends and shows neither
// can be correct in all cases.
type RepChoice int

const (
	// RepSmallest uses the smallest pairwise selectivity in the class,
	// 1/max(all d in class).
	RepSmallest RepChoice = iota
	// RepLargest uses the largest pairwise selectivity in the class,
	// 1/(second-smallest d in class).
	RepLargest
)

// String names the choice.
func (c RepChoice) String() string {
	switch c {
	case RepSmallest:
		return "rep-smallest"
	case RepLargest:
		return "rep-largest"
	default:
		return "?"
	}
}

// Config selects an estimation algorithm.
type Config struct {
	// Rule combines eligible join selectivities within a class group.
	Rule Rule
	// UseEffectiveStats folds local predicates into table and column
	// cardinalities before join estimation (ELS steps 3–5). When false, the
	// "standard algorithm" applies: local predicates reduce table
	// cardinalities only, and join selectivities come from the raw column
	// cardinalities.
	UseEffectiveStats bool
	// ApplyClosure runs predicate transitive closure (ELS steps 1–2) on the
	// query's predicates before estimation. When false the estimator sees
	// exactly the predicates it was given.
	ApplyClosure bool
	// Sel configures join selectivity estimation.
	Sel SelOptions
	// Rep selects the representative selectivity for RuleRepresentative.
	Rep RepChoice
}

// SelOptions configures join selectivity estimation.
type SelOptions struct {
	// HistogramJoins enables histogram-based join selectivities
	// (selest.HistogramJoinSelectivity), relaxing the uniformity assumption
	// for join columns — the paper's Section 9 future-work extension. Join
	// predicates whose columns both carry histograms use them; others fall
	// back to Equation 2. The histograms used are the raw (pre-local-
	// predicate) ones.
	HistogramJoins bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if !c.Rule.Valid() {
		return fmt.Errorf("cardest: invalid rule %d", int(c.Rule))
	}
	return nil
}

// ELS returns the paper's Algorithm ELS: Rule LS, effective statistics,
// transitive closure, urn-model distinct reduction.
func ELS() Config {
	return Config{
		Rule:              RuleLS,
		UseEffectiveStats: true,
		ApplyClosure:      true,
	}
}

// SM returns Algorithm SM: Rule M over the standard (unreduced) statistics.
// Closure is off; enable it to model running SM on a PTC-rewritten query.
func SM() Config {
	return Config{Rule: RuleM}
}

// SSS returns Algorithm SSS: Rule SS over the standard statistics.
func SSS() Config {
	return Config{Rule: RuleSS}
}

// WithClosure returns a copy of the config with transitive closure enabled,
// modeling a PTC query-rewrite stage ahead of the estimator.
func (c Config) WithClosure() Config {
	c.ApplyClosure = true
	return c
}

// Name renders the algorithm name in the style of Section 8's table.
func (c Config) Name() string {
	switch {
	case c.Rule == RuleLS && c.UseEffectiveStats:
		return "ELS"
	case c.UseEffectiveStats:
		return "E" + c.Rule.String()
	default:
		return "S" + c.Rule.String()
	}
}
