// Package snapshotmut enforces the copy-on-write contract of
// internal/snapshot: a catalog obtained from a published snapshot
// (snapshot.Store.Current, snapshot.Snapshot.Catalog) is immutable.
// Mutations must go through the snapshot builder (Store.Mutate clones the
// catalog and publishes the clone atomically) or operate on an explicit
// Clone().
//
// The analyzer is intra-procedural: it tracks values chaining from
// Current()/Catalog() calls — through accessor methods (Table, Column,
// Data, Index) and local variable assignments — and flags
//
//   - field/element writes rooted at such a value (cat.Table("r").Card = 9),
//   - calls to catalog mutator methods on such a value (AddTable, SetData,
//     BuildIndex, Analyze, ImportJSON, MustAddTable),
//   - delete() on a map reachable from such a value.
//
// Clone() detaches: writes behind a Clone() call are the sanctioned
// copy-then-mutate idiom. Function parameters are never treated as
// published (the Mutate callback legitimately mutates the clone it is
// handed). internal/snapshot itself and _test.go files are exempt.
package snapshotmut

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer flags writes to catalog state reachable from a published
// snapshot.
var Analyzer = &analysis.Analyzer{
	Name: "snapshotmut",
	Doc:  "published snapshot catalogs are copy-on-write; mutate through Store.Mutate or an explicit Clone",
	Run:  run,
}

// mutators are the catalog methods that write; calling one on a published
// catalog defeats copy-on-write.
var mutators = map[string]bool{
	"AddTable":     true,
	"MustAddTable": true,
	"SetData":      true,
	"BuildIndex":   true,
	"Analyze":      true,
	"ImportJSON":   true,
}

// accessors traverse without detaching: their result is still reachable
// from the published snapshot.
var accessors = map[string]bool{
	"Current": true,
	"Catalog": true,
	"Table":   true,
	"Column":  true,
	"Data":    true,
	"Index":   true,
}

func run(pass *analysis.Pass) (any, error) {
	if analysis.PathHasSuffix(pass.Pkg.Path(), "internal/snapshot") {
		return nil, nil // the builder itself
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				checkFunc(pass, fn.Body)
			}
		}
	}
	return nil, nil
}

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	c := &checker{pass: pass, published: make(map[types.Object]bool)}
	// Grow the published-variable set to a fixpoint, then scan for writes.
	for {
		grew := false
		ast.Inspect(body, func(n ast.Node) bool {
			st, ok := n.(*ast.AssignStmt)
			if !ok || len(st.Lhs) != len(st.Rhs) {
				return true
			}
			for i, rhs := range st.Rhs {
				if !c.publishedRoot(rhs) {
					continue
				}
				if id, isID := st.Lhs[i].(*ast.Ident); isID {
					if obj := c.defOrUse(id); obj != nil && !c.published[obj] {
						c.published[obj] = true
						grew = true
					}
				}
			}
			return true
		})
		if !grew {
			break
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				c.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			c.checkWrite(st.X)
		case *ast.CallExpr:
			c.checkCall(st)
		}
		return true
	})
}

type checker struct {
	pass      *analysis.Pass
	published map[types.Object]bool
}

// checkWrite flags an assignment target rooted at a published value.
// Plain identifiers are rebindings, not writes through the snapshot.
func (c *checker) checkWrite(lhs ast.Expr) {
	switch lhs.(type) {
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
		if c.publishedRoot(lhs) {
			c.pass.Reportf(lhs.Pos(), "write to catalog state reachable from a published snapshot; published catalogs are copy-on-write — mutate via snapshot.Store.Mutate or an explicit Clone()")
		}
	}
}

// checkCall flags mutator-method calls on published receivers and
// delete() on published maps.
func (c *checker) checkCall(call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
		if c.publishedRoot(call.Args[0]) {
			c.pass.Reportf(call.Pos(), "delete from a map reachable from a published snapshot; published catalogs are copy-on-write — mutate via snapshot.Store.Mutate or an explicit Clone()")
		}
		return
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mutators[sel.Sel.Name] {
		return
	}
	if c.publishedRoot(sel.X) {
		c.pass.Reportf(call.Pos(), "%s on a catalog obtained from a published snapshot; published catalogs are copy-on-write — mutate via snapshot.Store.Mutate or an explicit Clone()", sel.Sel.Name)
	}
}

// publishedRoot reports whether e chains back to a published snapshot
// value: a Current()/Catalog() call, a published local variable, or an
// accessor chain over either. A Clone() call anywhere in the chain
// detaches it.
func (c *checker) publishedRoot(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[x]
			return obj != nil && c.published[obj]
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			switch {
			case sel.Sel.Name == "Clone":
				return false // detached copy
			case c.isSnapshotOrigin(sel):
				return true
			case accessors[sel.Sel.Name]:
				e = sel.X // still reachable; keep chasing the receiver
			default:
				return false // unknown call result: provenance unprovable
			}
		default:
			return false
		}
	}
}

// isSnapshotOrigin reports whether sel names Store.Current or
// Snapshot.Catalog from internal/snapshot.
func (c *checker) isSnapshotOrigin(sel *ast.SelectorExpr) bool {
	if sel.Sel.Name != "Current" && sel.Sel.Name != "Catalog" {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[sel.X]
	if !ok {
		return false
	}
	t := tv.Type
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !analysis.PathHasSuffix(obj.Pkg().Path(), "internal/snapshot") {
		return false
	}
	name := obj.Name()
	return (name == "Store" && sel.Sel.Name == "Current") ||
		(name == "Snapshot" && sel.Sel.Name == "Catalog")
}

// defOrUse resolves an identifier whether it defines or uses its object.
func (c *checker) defOrUse(id *ast.Ident) types.Object {
	if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return c.pass.TypesInfo.Uses[id]
}
