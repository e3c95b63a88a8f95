// Package nakedgoroutine forbids raw go statements outside
// internal/workpool and internal/admission. Every other goroutine in the
// pipeline must be spawned through workpool (Go/Async), which recovers
// panics into *governor.InternalError and keeps the admission controller's
// slot accounting honest; a naked go statement silently opts out of both.
// _test.go files are exempt — tests spawn goroutines by design.
package nakedgoroutine

import (
	"go/ast"

	"repro/internal/analysis"
)

// allowedPkgs may use raw go statements: they are the spawn primitives
// themselves.
var allowedPkgs = []string{
	"internal/workpool",
	"internal/admission",
}

// Analyzer flags raw go statements outside the spawn-primitive packages.
var Analyzer = &analysis.Analyzer{
	Name: "nakedgoroutine",
	Doc:  "goroutines must be spawned via internal/workpool so panic recovery and slot accounting hold",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, allowed := range allowedPkgs {
		if analysis.PathHasSuffix(pass.Pkg.Path(), allowed) {
			return nil, nil
		}
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(g.Pos(), "naked go statement bypasses panic recovery and slot accounting; use workpool.Go or workpool.Async")
			}
			return true
		})
	}
	return nil, nil
}
