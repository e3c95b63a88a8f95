package optimizer

import (
	"fmt"
	"strings"
)

// FormatDot renders a plan as a Graphviz DOT digraph, for visualizing how
// the estimation algorithm shaped the plan. Nodes show the operator, the
// estimated row count, and the cumulative cost; edges point from inputs to
// consumers.
func FormatDot(p Plan) string {
	var b strings.Builder
	b.WriteString("digraph plan {\n")
	b.WriteString("  rankdir=BT;\n")
	b.WriteString("  node [shape=box, fontname=\"monospace\"];\n")
	counter := 0
	var walk func(Plan) string
	walk = func(n Plan) string {
		id := fmt.Sprintf("n%d", counter)
		counter++
		switch node := n.(type) {
		case *Scan:
			label := fmt.Sprintf("Scan %s", node.Alias)
			if len(node.Filter) > 0 || len(node.FilterOr) > 0 {
				label += " (filtered)"
			}
			fmt.Fprintf(&b, "  %s [label=%q];\n", id,
				fmt.Sprintf("%s\\nrows=%s cost=%.1f", label, fmtRows(node.Rows), node.ScanCost))
		case *Join:
			fmt.Fprintf(&b, "  %s [label=%q];\n", id,
				fmt.Sprintf("%s join\\nrows=%s cost=%.1f", node.Method, fmtRows(node.Rows), node.PlanCost))
			l := walk(node.Left)
			r := walk(node.Right)
			fmt.Fprintf(&b, "  %s -> %s;\n", l, id)
			fmt.Fprintf(&b, "  %s -> %s;\n", r, id)
		}
		return id
	}
	walk(p)
	b.WriteString("}\n")
	return b.String()
}
