// Package atomicwrite enforces the crash-atomicity contract of
// internal/durable: files are published with temp-file + fsync + rename
// (durable.AtomicWriteFile), never written in place. A direct
// os.WriteFile, os.Create, or file-creating os.OpenFile elsewhere in
// library code can be torn by a crash — a reader (or recovery) then sees a
// prefix of the file, which is exactly the corruption class the stats JSON
// checksums and the WAL exist to rule out.
//
// Flagged:
//
//   - os.WriteFile(...) — in-place, no fsync, no rename
//   - os.Create(...) — truncates the target before the new content exists
//   - os.OpenFile(..., flags, ...) when flags provably contain os.O_CREATE
//
// Exempt: internal/durable itself (it implements the protocol),
// _test.go files, and call sites annotated with
// "//atomicwrite:allow <reason>" on the same line or the line above (for
// writes that are not catalog artifacts, e.g. scratch output of a build
// tool). Flag arguments that are not compile-time constants are left
// alone: provenance unprovable.
package atomicwrite

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"

	"repro/internal/analysis"
)

// Analyzer flags non-atomic file creation outside internal/durable.
var Analyzer = &analysis.Analyzer{
	Name: "atomicwrite",
	Doc:  "catalog artifacts are written crash-atomically; use durable.AtomicWriteFile instead of direct os.WriteFile/os.Create",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if analysis.PathHasSuffix(pass.Pkg.Path(), "internal/durable") {
		return nil // the atomic-write protocol itself
	}
	dirs := analysis.NewDirectives(pass.Fset, pass.Files)
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		fc := &fileCheck{pass: pass, dirs: dirs}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				fc.checkCall(call)
			}
			return true
		})
	}
	return nil
}

type fileCheck struct {
	pass *analysis.Pass
	dirs *analysis.Directives
}

// annotated reports whether n carries an //atomicwrite:allow annotation on
// its line or the line above.
func (fc *fileCheck) annotated(n ast.Node) bool {
	return fc.dirs.Allowed(n.Pos(), "atomicwrite")
}

// checkCall flags a non-atomic file-creating call from package os.
func (fc *fileCheck) checkCall(call *ast.CallExpr) {
	name := fc.osCall(call)
	if name == "" || fc.annotated(call) {
		return
	}
	switch name {
	case "WriteFile", "Create":
		fc.pass.Reportf(call.Pos(), "os.%s writes the file in place — a crash mid-write leaves a torn artifact; use durable.AtomicWriteFile (temp + fsync + rename), or annotate with //atomicwrite:allow <reason>", name)
	case "OpenFile":
		if len(call.Args) >= 2 && fc.hasCreateFlag(call.Args[1]) {
			fc.pass.Reportf(call.Pos(), "os.OpenFile with O_CREATE creates the file in place — a crash mid-write leaves a torn artifact; use durable.AtomicWriteFile (temp + fsync + rename), or annotate with //atomicwrite:allow <reason>")
		}
	}
}

// osCall returns the function name when call is os.<Name>(...), else "".
func (fc *fileCheck) osCall(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := fc.pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "os" {
		return ""
	}
	return sel.Sel.Name
}

// hasCreateFlag reports whether the flag expression is a compile-time
// constant containing os.O_CREATE.
func (fc *fileCheck) hasCreateFlag(flag ast.Expr) bool {
	tv, ok := fc.pass.TypesInfo.Types[flag]
	if !ok || tv.Value == nil {
		return false
	}
	v, ok := constant.Int64Val(constant.ToInt(tv.Value))
	return ok && v&int64(os.O_CREATE) != 0
}
