// Package errtaxonomy enforces the public error taxonomy of the root els
// package: every error constructed inside an els function must wrap one of
// the taxonomy sentinels (the rows of internal/governor's taxonomy table,
// re-exported by package els) so callers can always classify failures
// with errors.Is. Concretely it flags errors.New calls and fmt.Errorf
// calls whose format string has no %w verb; package-level var declarations
// are exempt (that is where sentinels themselves are born), as are
// _test.go files.
package errtaxonomy

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags taxonomy-free error construction in package els.
var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc:  "errors escaping the els API must wrap a taxonomy sentinel (use fmt.Errorf with %w)",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	// The taxonomy is a contract of the public els package only; internal
	// packages define the sentinels and may construct plain errors that the
	// boundary re-wraps.
	if pass.Pkg.Name() != "els" {
		return nil, nil
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil {
				checkFunc(pass, fn.Body)
			}
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg := importedPkg(pass, sel.X)
		switch {
		case pkg == "errors" && sel.Sel.Name == "New":
			pass.Reportf(call.Pos(), "errors.New in package els wraps no taxonomy sentinel; use fmt.Errorf(\"...: %%w\", <one of the els.Err* sentinels>)")
		case pkg == "fmt" && sel.Sel.Name == "Errorf":
			if lit := formatLiteral(call); lit != "" && !strings.Contains(lit, "%w") {
				pass.Reportf(call.Pos(), "fmt.Errorf in package els wraps no taxonomy sentinel; chain one of the els.Err* sentinels with %%w")
			}
		}
		return true
	})
}

// importedPkg returns the import path when e names an imported package.
func importedPkg(pass *analysis.Pass, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// formatLiteral returns the call's constant format string, or "" when the
// format is not a string literal (such calls cannot be checked statically
// and are left alone).
func formatLiteral(call *ast.CallExpr) string {
	if len(call.Args) == 0 {
		return ""
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok {
		return ""
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return ""
	}
	return s
}
