// Package locknames is the shared vocabulary of the lockorder and
// locksafe analyzers: canonical names for mutexes, classification of
// Lock/Unlock call sites, and the //lockorder: + //locksafe: comment
// directives (see DESIGN.md §12).
//
// A named lock is identified as
//
//	<pkgpath>.<TypeName>.<field>   a sync.Mutex/RWMutex struct field
//	<pkgpath>.<var>                a package-level mutex variable
//	<pkgpath>.<Func>.<var>         a function-local mutex variable
//
// so the same runtime lock acquired from any package resolves to the same
// node of the global lock-acquisition graph (two *instances* of the same
// field collapse to one node — the hierarchy is declared per lock
// declaration, not per object, exactly like a canonical lock-level table
// in a design doc).
package locknames

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Op classifies a call expression's effect on a mutex.
type Op int

const (
	// OpNone marks a call that is not a mutex operation.
	OpNone Op = iota
	// OpLock is Mutex.Lock or RWMutex.Lock.
	OpLock
	// OpRLock is RWMutex.RLock.
	OpRLock
	// OpUnlock is Mutex.Unlock or RWMutex.Unlock.
	OpUnlock
	// OpRUnlock is RWMutex.RUnlock.
	OpRUnlock
)

// Acquire reports whether op takes the lock.
func (op Op) Acquire() bool { return op == OpLock || op == OpRLock }

// Release reports whether op drops the lock.
func (op Op) Release() bool { return op == OpUnlock || op == OpRUnlock }

// isSyncLockType reports whether t (after pointer stripping) is
// sync.Mutex or sync.RWMutex.
func isSyncLockType(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// Classify inspects a call expression and, when it is a mutex
// acquisition or release, returns the op together with the expression
// denoting the mutex (the receiver of the Lock/Unlock selector).
func Classify(info *types.Info, call *ast.CallExpr) (Op, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return OpNone, nil
	}
	var op Op
	switch sel.Sel.Name {
	case "Lock":
		op = OpLock
	case "RLock":
		op = OpRLock
	case "Unlock":
		op = OpUnlock
	case "RUnlock":
		op = OpRUnlock
	default:
		return OpNone, nil
	}
	s := info.Selections[sel]
	if s == nil {
		return OpNone, nil
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return OpNone, nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isSyncLockType(sig.Recv().Type()) {
		return OpNone, nil
	}
	return op, sel.X
}

// Name resolves the canonical name of the mutex denoted by expr, where
// enclosing names the function whose body contains expr (for
// function-local mutexes). ok is false when the expression is too dynamic
// to name (the caller skips it).
func Name(info *types.Info, expr ast.Expr, enclosing string) (name string, ok bool) {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		obj, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return "", false
		}
		owner := ""
		if s := info.Selections[e]; s != nil {
			// A promoted field belongs to the embedded struct that declares
			// it, so the lock has one name however it is reached.
			t := deref(s.Recv())
			path := s.Index()
			for _, i := range path[:len(path)-1] {
				st, isStruct := t.Underlying().(*types.Struct)
				if !isStruct {
					return "", false
				}
				t = deref(st.Field(i).Type())
			}
			if named, isNamed := t.(*types.Named); isNamed {
				owner = named.Obj().Name() + "."
			}
		} else if obj.Parent() == obj.Pkg().Scope() {
			// pkg-qualified reference to a package-level mutex (pkg.mu)
			return obj.Pkg().Path() + "." + obj.Name(), true
		}
		if owner == "" {
			return "", false
		}
		return obj.Pkg().Path() + "." + owner + obj.Name(), true
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return "", false
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), true
		}
		return obj.Pkg().Path() + "." + enclosing + "." + obj.Name(), true
	case *ast.ParenExpr:
		return Name(info, e.X, enclosing)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return Name(info, e.X, enclosing)
		}
	case *ast.StarExpr:
		return Name(info, e.X, enclosing)
	}
	return "", false
}

func deref(t types.Type) types.Type {
	if p, isPtr := t.(*types.Pointer); isPtr {
		return p.Elem()
	}
	return t
}

// IsWaitGroupWait reports whether call is (*sync.WaitGroup).Wait.
func IsWaitGroupWait(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Wait" {
		return false
	}
	s := info.Selections[sel]
	if s == nil {
		return false
	}
	fn, ok := s.Obj().(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	named, ok := deref(sig.Recv().Type()).(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// Directives indexes the //lockorder: and //locksafe: comment directives
// of one package by file and line, so analyzers can answer "is this
// acquisition site annotated?" for a token.Pos. A directive applies to
// its own line (trailing comment) and to the line directly below it
// (comment-above form).
type Directives struct {
	fset   *token.FileSet
	byLine map[string]map[int][]string // filename -> line -> directive texts
	edges  []EdgeDecl
}

// EdgeDecl is one manual `//lockorder:edge FROM TO` declaration.
type EdgeDecl struct {
	// From and To are canonical lock names.
	From, To string
	// Pos is the position of the declaring comment.
	Pos token.Pos
}

// CollectDirectives scans every comment of files.
func CollectDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, "lockorder:") && !strings.HasPrefix(text, "locksafe:") {
					continue
				}
				pos := fset.Position(c.Pos())
				m := d.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					d.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], text)
				if rest, ok := strings.CutPrefix(text, "lockorder:edge"); ok {
					if fields := strings.Fields(rest); len(fields) == 2 {
						d.edges = append(d.edges, EdgeDecl{From: fields[0], To: fields[1], Pos: c.Pos()})
					}
				}
			}
		}
	}
	return d
}

// at returns the directives covering pos: same line or the line above.
func (d *Directives) at(pos token.Pos) []string {
	p := d.fset.Position(pos)
	m := d.byLine[p.Filename]
	if m == nil {
		return nil
	}
	return append(append([]string(nil), m[p.Line-1]...), m[p.Line]...)
}

// Allowed reports whether pos carries an allow escape for tool
// ("lockorder" or "locksafe"): `//<tool>:allow <reason>`.
func (d *Directives) Allowed(pos token.Pos, tool string) bool {
	for _, t := range d.at(pos) {
		if strings.HasPrefix(t, tool+":allow") {
			return true
		}
	}
	return false
}

// Level returns the `//lockorder:level N` annotation covering pos.
func (d *Directives) Level(pos token.Pos) (int, bool) {
	for _, t := range d.at(pos) {
		rest, ok := strings.CutPrefix(t, "lockorder:level")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSpace(rest))
		if err == nil {
			return n, true
		}
	}
	return 0, false
}

// Edges returns the manual `//lockorder:edge FROM TO` declarations of the
// package — the escape hatch for lock orderings the analyzer cannot see
// statically, such as a callback invoked under a lock (snapshot publish
// invoking the plan-cache invalidation hook). Each declaration contributes
// one edge to the global graph with its comment position as witness.
func (d *Directives) Edges() []EdgeDecl {
	return d.edges
}

// IsLockType reports whether t (after pointer stripping) is sync.Mutex or
// sync.RWMutex — the declaration-side mirror of Classify.
func IsLockType(t types.Type) bool { return isSyncLockType(t) }
