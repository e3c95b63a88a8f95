// Package ctxflow enforces end-to-end context propagation:
//
//  1. context.Background() and context.TODO() are forbidden in library
//     code. Root contexts belong in cmd/ main packages and tests; a
//     library call site that genuinely needs a fresh context (a
//     nil-context compatibility default, a detached audit write) must
//     carry a "//ctxflow:allow <reason>" annotation on the same line or
//     the line above.
//  2. A function that receives a context.Context must thread it: any
//     context.Context argument it passes must derive from one of its
//     context parameters (directly, or through context.With* chains).
//     Passing some other context severs cancellation — the exact shape of
//     the PR 3 breaker-probe leak.
//
// _test.go files are exempt from both rules.
package ctxflow

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer enforces context threading and forbids stray root contexts.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "contexts must flow from caller to callee; no context.Background/TODO outside cmd/, tests, and annotated sites",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	path := pass.Pkg.Path()
	exemptPkg := strings.HasPrefix(path, "cmd/") || strings.Contains(path, "/cmd/")
	dirs := analysis.NewDirectives(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		fc := &fileCheck{pass: pass, dirs: dirs, exemptPkg: exemptPkg}
		if !exemptPkg {
			fc.checkRootContexts(f)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				fc.checkThreading(fn.Type, fn.Body)
			}
		}
	}
	return nil
}

type fileCheck struct {
	pass      *analysis.Pass
	dirs      *analysis.Directives
	exemptPkg bool
}

// annotated reports whether n carries a //ctxflow:allow annotation on its
// line or the line above.
func (fc *fileCheck) annotated(n ast.Node) bool {
	return fc.dirs.Allowed(n.Pos(), "ctxflow")
}

// checkRootContexts flags unannotated context.Background/TODO calls.
func (fc *fileCheck) checkRootContexts(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := fc.rootContextCall(call); name != "" && !fc.annotated(call) {
			fc.pass.Reportf(call.Pos(), "context.%s in library code severs cancellation; accept a ctx parameter, or annotate the call site with //ctxflow:allow <reason>", name)
		}
		return true
	})
}

// rootContextCall returns "Background" or "TODO" when call constructs a
// root context, else "".
func (fc *fileCheck) rootContextCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := fc.pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "context" {
		return ""
	}
	if sel.Sel.Name == "Background" || sel.Sel.Name == "TODO" {
		return sel.Sel.Name
	}
	return ""
}

// checkThreading enforces rule 2 on one function body: every
// context.Context argument passed by a context-receiving function must
// derive from a context parameter.
func (fc *fileCheck) checkThreading(ft *ast.FuncType, body *ast.BlockStmt) {
	derived := fc.contextParams(ft, body)
	if len(derived) == 0 {
		return // not a context-receiving function
	}
	fc.propagate(body, derived)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, arg := range call.Args {
			fc.checkArg(arg, derived)
		}
		return true
	})
}

// contextParams collects the context.Context parameter objects of the
// function and of every function literal nested in it (a nested literal's
// own ctx parameter is as legitimate a source as the outer one).
func (fc *fileCheck) contextParams(ft *ast.FuncType, body *ast.BlockStmt) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	add := func(ft *ast.FuncType) {
		if ft.Params == nil {
			return
		}
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := fc.pass.TypesInfo.Defs[name]; obj != nil && isContextType(obj.Type()) {
					derived[obj] = true
				}
			}
		}
	}
	add(ft)
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			add(lit.Type)
		}
		return true
	})
	return derived
}

// propagate grows the derived set through assignments: a Context-typed
// variable assigned from an expression that mentions a derived context (or
// an annotated root context) is itself derived. Runs to a fixpoint.
func (fc *fileCheck) propagate(body *ast.BlockStmt, derived map[types.Object]bool) {
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				ok := false
				for _, rhs := range st.Rhs {
					if fc.blessed(rhs, derived) {
						ok = true
					}
				}
				if !ok {
					return true
				}
				for _, lhs := range st.Lhs {
					if id, isID := lhs.(*ast.Ident); isID {
						if obj := fc.defOrUse(id); obj != nil && isContextType(obj.Type()) && !derived[obj] {
							derived[obj] = true
							grew = true
						}
					}
				}
			case *ast.ValueSpec:
				ok := false
				for _, rhs := range st.Values {
					if fc.blessed(rhs, derived) {
						ok = true
					}
				}
				if !ok {
					return true
				}
				for _, name := range st.Names {
					if obj := fc.pass.TypesInfo.Defs[name]; obj != nil && isContextType(obj.Type()) && !derived[obj] {
						derived[obj] = true
						grew = true
					}
				}
			}
			return true
		})
		if !grew {
			return
		}
	}
}

// blessed reports whether expr mentions a derived context or an allowed
// (annotated / package-exempt) root-context construction.
func (fc *fileCheck) blessed(expr ast.Expr, derived map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			if obj := fc.pass.TypesInfo.Uses[x]; obj != nil && derived[obj] {
				found = true
			}
		case *ast.CallExpr:
			if fc.rootContextCall(x) != "" && (fc.exemptPkg || fc.annotated(x)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkArg flags a context.Context argument that names a context variable
// not derived from any context parameter. Root-context calls are rule 1's
// business; compound expressions whose provenance cannot be proven are
// left alone.
func (fc *fileCheck) checkArg(arg ast.Expr, derived map[types.Object]bool) {
	id, ok := arg.(*ast.Ident)
	if !ok {
		return
	}
	obj, isVar := fc.pass.TypesInfo.Uses[id].(*types.Var)
	if !isVar || !isContextType(obj.Type()) || derived[obj] {
		return
	}
	// Struct fields and package-level contexts are out of scope for the
	// intra-procedural rule; only local variables with a visible
	// non-derived origin are flagged.
	if obj.Parent() == nil || (obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()) {
		return
	}
	if fc.annotated(id) {
		return
	}
	fc.pass.Reportf(id.Pos(), "context %q does not derive from this function's context parameter; thread the received ctx instead", id.Name)
}

// defOrUse resolves an identifier whether it defines or uses its object.
func (fc *fileCheck) defOrUse(id *ast.Ident) types.Object {
	if obj := fc.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return fc.pass.TypesInfo.Uses[id]
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}
