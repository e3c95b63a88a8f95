package optimizer

import "fmt"

// exhaustivePlan tries every left-deep join order (n! permutations; n must
// be small) and returns the cheapest plan: the oracle the dynamic
// programming search is held to.
func (o *Optimizer) exhaustivePlan() (Plan, error) {
	n := len(o.aliases)
	if n == 0 {
		return nil, fmt.Errorf("optimizer: no tables")
	}
	if n > 8 {
		return nil, fmt.Errorf("optimizer: exhaustive search limited to 8 tables, got %d", n)
	}
	order := make([]string, 0, n)
	var best Plan
	var permute func(remaining []string)
	permute = func(remaining []string) {
		if len(remaining) == 0 {
			if plan, err := o.PlanForOrder(order); err == nil && (best == nil || plan.Cost() < best.Cost()) {
				best = plan
			}
			return
		}
		for i := range remaining {
			order = append(order, remaining[i])
			rest := append(append([]string{}, remaining[:i]...), remaining[i+1:]...)
			permute(rest)
			order = order[:len(order)-1]
		}
	}
	permute(o.aliases)
	if best == nil {
		return nil, fmt.Errorf("optimizer: no plan found")
	}
	return best, nil
}
