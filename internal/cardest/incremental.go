package cardest

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/expr"
)

// GroupChoice records, for one equivalence-class group at one incremental
// step, the eligible predicates, their individual selectivities, and the
// selectivity the configured rule chose. It powers EXPLAIN output and the
// experiment tables.
type GroupChoice struct {
	// ClassID identifies the equivalence class (its smallest column key),
	// or the predicate's own canonical key for ungrouped predicates.
	ClassID string
	// Predicates are the eligible join predicates of this group.
	Predicates []expr.Predicate
	// Selectivities are the per-predicate selectivities, aligned with
	// Predicates.
	Selectivities []float64
	// Chosen is the group's combined selectivity under the rule.
	Chosen float64
}

// StepResult describes one incremental join step.
type StepResult struct {
	// Table is the alias joined at this step.
	Table string
	// TableCard is the effective cardinality the table contributed.
	TableCard float64
	// Eligible are the join predicates linking the table to the joined set
	// (Section 2), in predicate-set order; empty for a cartesian step.
	Eligible []expr.Predicate
	// Groups are the per-class selectivity choices, ordered by ClassID.
	Groups []GroupChoice
	// Selectivity is the product of the group selectivities.
	Selectivity float64
	// Cartesian reports that no eligible join predicate linked the table
	// (a cartesian product step).
	Cartesian bool
	// Size is the estimated result size after the step.
	Size float64
}

// JoinStep estimates the result size of joining table next into an
// intermediate result of estimated size currentSize covering the joined
// aliases. This is ELS step 6 (or the corresponding step of the baseline
// algorithms): find the eligible join predicates, group them by
// equivalence class, choose one selectivity per group by the configured
// rule, and multiply. The order of joined does not matter, and the returned
// slices are the caller's.
func (e *Estimator) JoinStep(currentSize float64, joined []string, next string) (StepResult, error) {
	for _, j := range joined {
		if strings.EqualFold(j, next) {
			return StepResult{}, fmt.Errorf("cardest: table %q already joined", next)
		}
	}
	eff, err := e.Effective(next)
	if err != nil {
		return StepResult{}, err
	}
	res := StepResult{Table: next, TableCard: eff.Card, Selectivity: 1}
	for i := range e.joins {
		jp := &e.joins[i]
		if !jp.pred.References(next) || !referencesAny(jp.pred, joined) {
			continue
		}
		res.Eligible = append(res.Eligible, jp.pred)
		g := groupByID(&res.Groups, jp.group)
		g.Predicates = append(g.Predicates, jp.pred)
		g.Selectivities = append(g.Selectivities, jp.sel)
	}
	res.Cartesian = len(res.Eligible) == 0
	sort.Slice(res.Groups, func(i, j int) bool { return res.Groups[i].ClassID < res.Groups[j].ClassID })
	for i := range res.Groups {
		chosen, err := e.chooseSelectivity(&res.Groups[i])
		if err != nil {
			return StepResult{}, err
		}
		res.Groups[i].Chosen = chosen
		res.Selectivity *= chosen
	}
	res.Size = currentSize * res.TableCard * res.Selectivity
	return res, nil
}

func referencesAny(p expr.Predicate, tables []string) bool {
	for _, t := range tables {
		if p.References(t) {
			return true
		}
	}
	return false
}

// groupByID returns the group with the given id, appending an empty one if
// there is none yet. A step has a handful of groups, so a scan beats a map.
func groupByID(groups *[]GroupChoice, id string) *GroupChoice {
	for i := range *groups {
		if (*groups)[i].ClassID == id {
			return &(*groups)[i]
		}
	}
	*groups = append(*groups, GroupChoice{ClassID: id})
	return &(*groups)[len(*groups)-1]
}

// chooseSelectivity applies the configured rule to one group.
func (e *Estimator) chooseSelectivity(g *GroupChoice) (float64, error) {
	if len(g.Selectivities) == 0 {
		return 1, nil
	}
	switch e.cfg.Rule {
	case RuleM:
		prod := 1.0
		for _, s := range g.Selectivities {
			prod *= s
		}
		return prod, nil
	case RuleSS:
		min := math.Inf(1)
		for _, s := range g.Selectivities {
			if s < min {
				min = s
			}
		}
		return min, nil
	case RuleLS:
		max := math.Inf(-1)
		for _, s := range g.Selectivities {
			if s > max {
				max = s
			}
		}
		return max, nil
	case RuleRepresentative:
		if rep, ok := e.repSel[g.ClassID]; ok {
			return rep, nil
		}
		// Classes without a representative (e.g. non-equality groups) fall
		// back to the largest selectivity.
		max := math.Inf(-1)
		for _, s := range g.Selectivities {
			if s > max {
				max = s
			}
		}
		return max, nil
	default:
		return 0, fmt.Errorf("cardest: invalid rule %d", int(e.cfg.Rule))
	}
}

// EstimateOrder runs a full incremental estimation along the given join
// order (ELS step 6 repeated), returning the per-step results. The first
// table contributes its effective cardinality as the starting size.
func (e *Estimator) EstimateOrder(order []string) ([]StepResult, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("cardest: empty join order")
	}
	size, err := e.BaseSize(order[0])
	if err != nil {
		return nil, err
	}
	steps := make([]StepResult, 0, len(order)-1)
	joined := []string{order[0]}
	for _, next := range order[1:] {
		step, err := e.JoinStep(size, joined, next)
		if err != nil {
			return nil, err
		}
		steps = append(steps, step)
		size = step.Size
		joined = append(joined, next)
	}
	return steps, nil
}

// FinalSize is a convenience wrapper returning just the final estimate of
// EstimateOrder (the effective cardinality itself for a single table).
func (e *Estimator) FinalSize(order []string) (float64, error) {
	if len(order) == 1 {
		return e.BaseSize(order[0])
	}
	steps, err := e.EstimateOrder(order)
	if err != nil {
		return 0, err
	}
	return steps[len(steps)-1].Size, nil
}
