// Package governorcharge enforces budget accounting in internal/executor:
// any loop that produces result rows (contains an AppendRow call) must
// also charge the governor inside the loop, so no execution path emits
// unbounded output between budget checks. Charging is recognized through
// the executor's own idioms — the visit/emit/probe helpers — and the raw
// governor surface (TickTuples, TickRows, TickPlans, Charge, Err,
// CheckCtx). Loops that assemble output wholesale (storage.AppendRange of
// already-charged runs) are deliberately out of scope, as are _test.go
// files and every package other than internal/executor.
package governorcharge

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer flags row-producing executor loops with no governor charge.
var Analyzer = &analysis.Analyzer{
	Name: "governorcharge",
	Doc:  "row-producing loops in internal/executor must charge the governor (TickRows/TickTuples/CheckCtx or the visit/emit/probe helpers)",
	Run:  run,
}

// charges are call names that account against the budget, either directly
// on the governor or via the executor helpers that wrap it.
var charges = map[string]bool{
	"TickTuples": true,
	"TickRows":   true,
	"TickPlans":  true,
	"Charge":     true,
	"Err":        true,
	"CheckCtx":   true,
	"visit":      true,
	"emit":       true,
	"probe":      true,
}

func run(pass *analysis.Pass) (any, error) {
	if !analysis.PathHasSuffix(pass.Pkg.Path(), "internal/executor") {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var bodyNode *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				bodyNode = loop.Body
			case *ast.RangeStmt:
				bodyNode = loop.Body
			default:
				return true
			}
			if producesRows(bodyNode) && !chargesGovernor(bodyNode) {
				pass.Reportf(n.Pos(), "row-producing loop lacks a governor charge; call TickRows/TickTuples/CheckCtx (or the visit/emit/probe helpers) inside the loop so every AppendRow path is budget-accounted")
			}
			return true
		})
	}
	return nil, nil
}

// producesRows reports whether the loop body contains an AppendRow call.
func producesRows(body *ast.BlockStmt) bool {
	return containsCall(body, func(name string) bool { return name == "AppendRow" })
}

// chargesGovernor reports whether the loop body contains a charging call.
func chargesGovernor(body *ast.BlockStmt) bool {
	return containsCall(body, func(name string) bool { return charges[name] })
}

func containsCall(body *ast.BlockStmt, match func(string) bool) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			if match(fun.Sel.Name) {
				found = true
			}
		case *ast.Ident:
			if match(fun.Name) {
				found = true
			}
		}
		return !found
	})
	return found
}
