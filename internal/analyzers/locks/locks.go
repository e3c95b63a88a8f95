// Package locks holds the two lock-discipline analyzers, lockorder (Order)
// and locksafe (Safe), over one shared walk of every function body (see
// DESIGN.md §12).
//
// The walk tracks the set of locks held on the current path. It is
// path-sensitive at if/else: an arm that returns or panics drops out, and
// the arms that fall through join on the locks held in both. Loop, switch
// and select bodies are walked with a copy of the held set. A function
// literal is walked with an empty held set, since it may run later; a
// goroutine body is also marked async, so its acquisitions are not its
// spawner's. The walk hands each check four kinds of event: an
// acquisition, a static call, a blocking operation, and an exit from the
// function with the locks still held. Unlocks update the held set; a
// deferred unlock covers its lock at every exit but leaves it held for
// ordering purposes until the function returns.
//
// A named lock is identified as
//
//	<pkgpath>.<TypeName>.<field>   a sync.Mutex/RWMutex struct field
//	<pkgpath>.<var>                a package-level mutex variable
//	<pkgpath>.<Func>.<var>         a function-local mutex variable
//
// so the same runtime lock acquired from any package resolves to the same
// node of the global lock-acquisition graph (two instances of the same
// field collapse to one node: the hierarchy is declared per lock
// declaration, not per object). <Func> is the declared function in
// analysis.ObjectKey form, also when the lock is taken inside a literal.
package locks

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Order builds the global lock-acquisition graph and enforces
// deadlock-freedom and the declared lock hierarchy.
var Order = &analysis.Analyzer{
	Name:      "lockorder",
	Doc:       "lock acquisitions must be acyclic across packages and respect the declared //lockorder:level hierarchy",
	FactTypes: []analysis.Fact{new(FuncFact), new(GraphFact)},
	Run:       runOrder,
}

// Safe enforces release-on-all-paths and no-blocking-while-locked.
var Safe = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "every Lock must be released on all return paths, and no lock may be held across channel operations or WaitGroup.Wait",
	Run:  runSafe,
}

// heldLock is one acquisition still outstanding on the current path.
type heldLock struct {
	name string
	pos  token.Pos // acquisition site
}

// events receives what the walk sees. The slices it is handed are only
// valid for the call; a receiver that keeps one copies it.
type events interface {
	// acquire: lock is taken at pos while held are held; async marks an
	// acquisition inside a goroutine body.
	acquire(lock string, pos token.Pos, held []heldLock, async bool)
	// call: a static call of callee at pos while held are held. Calls
	// inside a goroutine body are not reported.
	call(callee types.Object, pos token.Pos, held []heldLock)
	// block: a blocking operation, described by what, at pos.
	block(what string, pos token.Pos, held []heldLock)
	// exit: the function or literal returns at pos with held still held
	// and not covered by a deferred release.
	exit(pos token.Pos, held []heldLock)
}

// walk runs the held-set walk over the body of every function declared in
// the package's non-test files. receiver returns the events receiver for
// one function, named in analysis.ObjectKey form.
func walk(pass *analysis.Pass, receiver func(name string, obj types.Object) events) {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name, obj := fd.Name.Name, pass.TypesInfo.Defs[fd.Name]
			if obj != nil {
				name = analysis.ObjectKey(obj)
			}
			w := &walker{info: pass.TypesInfo, fn: name, ev: receiver(name, obj)}
			w.body(fd.Body)
		}
	}
}

// walker is the state of the walk through one function body.
type walker struct {
	info     *types.Info
	fn       string // the declared function; names its local mutexes
	ev       events
	async    bool            // inside a goroutine body
	inComm   bool            // inside a select's comm clause: the select was the blocking event
	deferred map[string]bool // locks a deferred release covers in this body
}

// body walks a function or literal body from an empty held set.
func (w *walker) body(b *ast.BlockStmt) {
	w.deferred = make(map[string]bool)
	held := w.stmts(b.List, nil)
	if !terminates(b.List) {
		w.exit(held, b.End())
	}
}

// lit walks a function literal in its own context.
func (w *walker) lit(lit *ast.FuncLit, goroutine bool) {
	inner := *w
	inner.async = w.async || goroutine
	inner.inComm = false
	inner.body(lit.Body)
}

func (w *walker) exit(held []heldLock, at token.Pos) {
	var live []heldLock
	for _, h := range held {
		if !w.deferred[h.name] {
			live = append(live, h)
		}
	}
	w.ev.exit(at, live)
}

func (w *walker) block(held []heldLock, at token.Pos, what string) {
	if !w.inComm {
		w.ev.block(what, at, held)
	}
}

// stmts walks a statement list, threading the held set through it, and
// returns the held set at the end of the list.
func (w *walker) stmts(list []ast.Stmt, held []heldLock) []heldLock {
	for _, s := range list {
		held = w.stmt(s, held)
	}
	return held
}

func (w *walker) stmt(s ast.Stmt, held []heldLock) []heldLock {
	switch st := s.(type) {
	case *ast.ExprStmt:
		held = w.expr(st.X, held)
	case *ast.AssignStmt:
		held = w.exprs(st.Rhs, held)
		held = w.exprs(st.Lhs, held)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					held = w.exprs(vs.Values, held)
				}
			}
		}
	case *ast.ReturnStmt:
		held = w.exprs(st.Results, held)
		w.exit(held, st.Pos())
	case *ast.IfStmt:
		held = w.stmt(st.Init, held)
		held = w.expr(st.Cond, held)
		thenOut := w.stmts(st.Body.List, clone(held))
		thenEnds := terminates(st.Body.List)
		if st.Else == nil {
			if !thenEnds {
				held = intersect(held, thenOut)
			}
			break
		}
		elseOut := w.stmt(st.Else, clone(held))
		elseEnds := false
		if e, ok := st.Else.(*ast.BlockStmt); ok {
			elseEnds = terminates(e.List)
		}
		switch {
		case thenEnds && elseEnds:
			// both arms leave the function; code after is unreachable
		case thenEnds:
			held = elseOut
		case elseEnds:
			held = thenOut
		default:
			held = intersect(thenOut, elseOut)
		}
	case *ast.ForStmt:
		held = w.stmt(st.Init, held)
		held = w.expr(st.Cond, held)
		w.stmt(st.Post, w.stmts(st.Body.List, clone(held)))
	case *ast.RangeStmt:
		held = w.expr(st.X, held)
		if tv, ok := w.info.Types[st.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.block(held, st.Pos(), "range over channel")
			}
		}
		w.stmts(st.Body.List, clone(held))
	case *ast.SwitchStmt:
		held = w.stmt(st.Init, held)
		held = w.expr(st.Tag, held)
		w.clauses(st.Body, held)
	case *ast.TypeSwitchStmt:
		held = w.stmt(st.Init, held)
		held = w.stmt(st.Assign, held)
		w.clauses(st.Body, held)
	case *ast.SelectStmt:
		// A select with a default clause never parks: the repo's wake/drop
		// idiom (admission wakeups, shipper enqueue) relies on exactly that
		// under a lock.
		blocking := true
		for _, c := range st.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				blocking = false
			}
		}
		if blocking {
			w.block(held, st.Pos(), "select")
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			w.inComm = true
			inner := w.stmt(cc.Comm, clone(held))
			w.inComm = false
			w.stmts(cc.Body, inner)
		}
	case *ast.BlockStmt:
		held = w.stmts(st.List, held)
	case *ast.LabeledStmt:
		held = w.stmt(st.Stmt, held)
	case *ast.DeferStmt:
		if x, acquire, ok := lockCall(w.info, st.Call); ok && !acquire {
			if name, ok := lockName(w.info, x, w.fn); ok {
				w.deferred[name] = true
			}
			break
		}
		held = w.expr(st.Call, held)
	case *ast.GoStmt:
		// The goroutine runs with no inherited locks. Arguments are
		// evaluated on the spawner's path.
		if lit, ok := st.Call.Fun.(*ast.FuncLit); ok {
			w.lit(lit, true)
		}
		held = w.exprs(st.Call.Args, held)
	case *ast.SendStmt:
		w.block(held, st.Pos(), "channel send")
		held = w.expr(st.Chan, held)
		held = w.expr(st.Value, held)
	case *ast.IncDecStmt:
		held = w.expr(st.X, held)
	}
	// A BranchStmt (break, continue, goto) rejoins a path this walk also
	// covers, so it has nothing to check.
	return held
}

// clauses walks each case of a switch body from a copy of held.
func (w *walker) clauses(body *ast.BlockStmt, held []heldLock) {
	for _, c := range body.List {
		w.stmts(c.(*ast.CaseClause).Body, clone(held))
	}
}

func (w *walker) exprs(list []ast.Expr, held []heldLock) []heldLock {
	for _, e := range list {
		held = w.expr(e, held)
	}
	return held
}

func (w *walker) expr(e ast.Expr, held []heldLock) []heldLock {
	switch ex := e.(type) {
	case *ast.CallExpr:
		return w.call(ex, held)
	case *ast.FuncLit:
		w.lit(ex, false)
	case *ast.UnaryExpr:
		if ex.Op == token.ARROW {
			w.block(held, ex.Pos(), "channel receive")
		}
		held = w.expr(ex.X, held)
	case *ast.ParenExpr:
		held = w.expr(ex.X, held)
	case *ast.BinaryExpr:
		held = w.expr(ex.X, held)
		held = w.expr(ex.Y, held)
	case *ast.SelectorExpr:
		held = w.expr(ex.X, held)
	case *ast.IndexExpr:
		held = w.expr(ex.X, held)
		held = w.expr(ex.Index, held)
	case *ast.SliceExpr:
		held = w.expr(ex.X, held)
	case *ast.StarExpr:
		held = w.expr(ex.X, held)
	case *ast.TypeAssertExpr:
		held = w.expr(ex.X, held)
	case *ast.CompositeLit:
		held = w.exprs(ex.Elts, held)
	case *ast.KeyValueExpr:
		held = w.expr(ex.Value, held)
	}
	return held
}

// call handles one call expression: a lock operation updates the held
// set, any other statically resolvable call is reported with it.
func (w *walker) call(call *ast.CallExpr, held []heldLock) []heldLock {
	if x, acquire, ok := lockCall(w.info, call); ok {
		name, ok := lockName(w.info, x, w.fn)
		switch {
		case !ok:
		case acquire:
			w.ev.acquire(name, call.Pos(), held, w.async)
			held = append(held, heldLock{name: name, pos: call.Pos()})
		default:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].name == name {
					held = append(held[:i:i], held[i+1:]...)
					break
				}
			}
		}
		return held
	}
	if typ, method, _ := syncMethod(w.info, call); typ == "WaitGroup" && method == "Wait" {
		w.block(held, call.Pos(), "sync.WaitGroup.Wait")
	}
	if callee := calleeObject(w.info, call); callee != nil && !w.async {
		w.ev.call(callee, call.Pos(), held)
	}
	held = w.expr(call.Fun, held)
	return w.exprs(call.Args, held)
}

// terminates reports whether a statement list definitely leaves the
// enclosing function (trailing return, panic, or both-armed terminating
// if) — the paths after it are dead and carry no leak to report.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.IfStmt:
		elseBlock, ok := last.Else.(*ast.BlockStmt)
		return ok && terminates(last.Body.List) && terminates(elseBlock.List)
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

func clone(held []heldLock) []heldLock {
	return append([]heldLock(nil), held...)
}

// intersect keeps the locks held on both paths (same lock name), in
// a-order — a lock released on either path no longer needs releasing on
// the joined path it was released on, and the other path reports for
// itself.
func intersect(a, b []heldLock) []heldLock {
	names := make(map[string]bool, len(b))
	for _, h := range b {
		names[h.name] = true
	}
	var out []heldLock
	for _, h := range a {
		if names[h.name] {
			out = append(out, h)
		}
	}
	return out
}

// syncMethod returns the sync type, the method name and the receiver
// expression when call is a method call on a sync type.
func syncMethod(info *types.Info, call *ast.CallExpr) (typ, method string, recv ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || info.Selections[sel] == nil {
		return "", "", nil
	}
	fn, ok := info.Selections[sel].Obj().(*types.Func)
	if !ok {
		return "", "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", "", nil
	}
	named, ok := deref(sig.Recv().Type()).(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", nil
	}
	return named.Obj().Name(), fn.Name(), sel.X
}

// lockCall reports whether call is a Lock/RLock (acquire) or an
// Unlock/RUnlock of a sync.Mutex or sync.RWMutex, and returns the
// expression denoting the mutex.
func lockCall(info *types.Info, call *ast.CallExpr) (mutex ast.Expr, acquire, ok bool) {
	typ, method, recv := syncMethod(info, call)
	if typ != "Mutex" && typ != "RWMutex" {
		return nil, false, false
	}
	switch method {
	case "Lock", "RLock":
		return recv, true, true
	case "Unlock", "RUnlock":
		return recv, false, true
	}
	return nil, false, false
}

// isMutex reports whether t (after pointer stripping) is sync.Mutex or
// sync.RWMutex.
func isMutex(t types.Type) bool {
	named, ok := deref(t).(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// lockName resolves the canonical name of the mutex denoted by expr, where
// fn names the declared function whose body contains expr (for
// function-local mutexes). ok is false when the expression is too dynamic
// to name (the caller skips it).
func lockName(info *types.Info, expr ast.Expr, fn string) (name string, ok bool) {
	switch e := expr.(type) {
	case *ast.SelectorExpr:
		obj, ok := info.Uses[e.Sel].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return "", false
		}
		s := info.Selections[e]
		if s == nil {
			// pkg-qualified reference to a package-level mutex (pkg.mu)
			if obj.Parent() == obj.Pkg().Scope() {
				return obj.Pkg().Path() + "." + obj.Name(), true
			}
			return "", false
		}
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
		named, isNamed := t.(*types.Named)
		if !isNamed {
			return "", false
		}
		return obj.Pkg().Path() + "." + named.Obj().Name() + "." + obj.Name(), true
	case *ast.Ident:
		obj, ok := info.Uses[e].(*types.Var)
		if !ok || obj.Pkg() == nil {
			return "", false
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name(), true
		}
		return obj.Pkg().Path() + "." + fn + "." + obj.Name(), true
	case *ast.ParenExpr:
		return lockName(info, e.X, fn)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lockName(info, e.X, fn)
		}
	case *ast.StarExpr:
		return lockName(info, e.X, fn)
	}
	return "", false
}

func deref(t types.Type) types.Type {
	if p, isPtr := t.(*types.Pointer); isPtr {
		return p.Elem()
	}
	return t
}

// calleeObject resolves the called function's object for static calls:
// plain functions, package-qualified functions, and methods.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
