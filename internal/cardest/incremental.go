package cardest

import (
	"fmt"
	"math"

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
	// Positions are the Eligible predicates' positions in Predicates(),
	// where Operands() holds their column ids.
	Positions []int
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

// JoinStep estimates the result size of joining table number next into an
// intermediate result of estimated size currentSize over the tables of the
// joined mask. This is ELS step 6 (or the corresponding step of the
// baseline algorithms): find the eligible join predicates, group them by
// equivalence class, choose one selectivity per group by the configured
// rule, and multiply. The returned slices are the caller's.
//
// JoinStep explains a step; a search that only compares sizes calls
// StepSize, which computes the same Size without building the explanation.
func (e *Estimator) JoinStep(currentSize float64, joined uint64, next int) (StepResult, error) {
	if joined&(1<<next) != 0 {
		return StepResult{}, fmt.Errorf("cardest: table %q already joined", e.refs[next].Name())
	}
	res := StepResult{Table: e.refs[next].Name(), TableCard: e.eff[next].Card}
	for i := range e.joins {
		if jp := &e.joins[i]; jp.links(joined, next) {
			res.Eligible = append(res.Eligible, e.preds[jp.pred])
			res.Positions = append(res.Positions, int(jp.pred))
		}
	}
	size, linked, _ := e.step(currentSize, joined, next, &res)
	res.Size, res.Cartesian = size, !linked
	return res, nil
}

// StepSize is JoinStep on numbers, for join-order searches: the estimated
// size of joining table number next into an intermediate result of size
// currentSize over the tables of the joined mask, whether any join
// predicate links the table to them (the step is not a cartesian product),
// and whether an equality predicate does. The size is bit-identical to
// JoinStep's, and nothing is allocated.
func (e *Estimator) StepSize(currentSize float64, joined uint64, next int) (size float64, linked, equality bool) {
	return e.step(currentSize, joined, next, nil)
}

// links reports whether the predicate is eligible (Section 2) when table
// number next joins the tables of the joined mask: it mentions next and a
// joined table.
func (jp *joinPred) links(joined uint64, next int) bool {
	return jp.tables&(1<<next) != 0 && jp.tables&joined != 0
}

// step is ELS step 6 over the predicates touching next: one selectivity
// per group of eligible predicates by the configured rule, groups
// multiplied in id order and a group's predicates combined in predicate-set
// order. With explain non-nil it also records each group's predicates,
// selectivities and choice, and the product, there.
func (e *Estimator) step(currentSize float64, joined uint64, next int, explain *StepResult) (size float64, linked, equality bool) {
	selectivity := 1.0
	group, chosen := int32(-1), 0.0
	for _, i := range e.touching[next] {
		jp := &e.joins[i]
		if !jp.links(joined, next) {
			continue
		}
		if jp.group != group {
			if group >= 0 {
				selectivity *= chosen
			}
			group, chosen = jp.group, e.ruleIdentity()
			if explain != nil {
				explain.Groups = append(explain.Groups, GroupChoice{ClassID: e.groups[group].id})
			}
		}
		equality = equality || jp.eq
		chosen = e.combine(group, chosen, jp.sel)
		if explain != nil {
			g := &explain.Groups[len(explain.Groups)-1]
			g.Predicates = append(g.Predicates, e.preds[jp.pred])
			g.Selectivities = append(g.Selectivities, jp.sel)
			g.Chosen = chosen
		}
	}
	if group >= 0 {
		selectivity *= chosen
	}
	if explain != nil {
		explain.Selectivity = selectivity
	}
	return currentSize * e.eff[next].Card * selectivity, group >= 0, equality
}

// ruleIdentity is the value a group's selectivity starts from under the
// configured rule, before any predicate is combined into it.
func (e *Estimator) ruleIdentity() float64 {
	switch e.cfg.Rule {
	case RuleM:
		return 1
	case RuleSS:
		return math.Inf(1)
	default:
		return math.Inf(-1)
	}
}

// combine folds one more eligible selectivity s into a group's choice so
// far: the product under Rule M, the smallest under Rule SS, the largest
// under Rule LS, and the class's fixed selectivity under
// RuleRepresentative (the largest for a group without one, e.g. a
// non-equality predicate).
func (e *Estimator) combine(group int32, chosen, s float64) float64 {
	switch e.cfg.Rule {
	case RuleM:
		return chosen * s
	case RuleSS:
		if s < chosen {
			return s
		}
		return chosen
	default:
		if g := &e.groups[group]; g.hasRep {
			return g.rep
		}
		if s > chosen {
			return s
		}
		return chosen
	}
}

// EstimateOrder runs a full incremental estimation along the given join
// order (ELS step 6 repeated), returning the per-step results. The first
// table contributes its effective cardinality as the starting size.
func (e *Estimator) EstimateOrder(order []string) ([]StepResult, error) {
	if len(order) == 0 {
		return nil, fmt.Errorf("cardest: empty join order")
	}
	steps := make([]StepResult, 0, len(order)-1)
	var joined uint64
	var size float64
	for _, alias := range order {
		t, ok := e.TableNumber(alias)
		switch {
		case !ok:
			return nil, fmt.Errorf("cardest: unknown table alias %q", alias)
		case joined == 0:
			size = e.eff[t].Card
		default:
			step, err := e.JoinStep(size, joined, t)
			if err != nil {
				return nil, err
			}
			steps, size = append(steps, step), step.Size
		}
		joined |= 1 << t
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
