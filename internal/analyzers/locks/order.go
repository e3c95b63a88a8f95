package locks

// The lockorder check proves deadlock-freedom of the serving tree's mutex
// usage, offline: every function exports a fact summarizing which named
// locks it may acquire (directly or through its callees), the driver
// threads those facts across packages in dependency order, and each
// package contributes its acquisition edges — "lock A was held while lock
// B was acquired" — to a global lock-acquisition graph. It reports
//
//   - any cycle in the global graph, with the full witness chain (which
//     function, at which line, acquires which lock while holding which) —
//     a potential deadlock of the close_race kind PR 8 had to fix after a
//     chaos soak caught it at runtime;
//   - any acquisition that contradicts the declared canonical hierarchy:
//     every mutex declaration carries a `//lockorder:level N` annotation
//     (DESIGN.md §12 holds the canonical table), and a lock may only be
//     acquired while the locks already held all have strictly lower
//     levels;
//   - any mutex declaration missing its level annotation, so the
//     hierarchy stays total as the tree grows.
//
// Escapes: `//lockorder:allow <reason>` on an acquisition or call site
// accepts that site's orderings (they leave the cycle and hierarchy
// checks), and `//lockorder:edge FROM TO` declares an ordering the
// analyzer cannot see statically — a callback invoked under a lock — so
// it still participates in cycle detection.
//
// The analysis is approximate in the usual ways: calls through function
// values are not resolved (declare them with //lockorder:edge where they
// matter), and goroutine bodies contribute the edges of their own
// acquisitions but neither extend their spawner's held set nor follow
// their calls. The point is that every ordering the analyzer can see is
// machine-checked on every commit instead of rediscovered by chaos soaks.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

// FuncFact summarizes the named locks a function may acquire, directly or
// transitively through the static calls in its body.
type FuncFact struct {
	// Acquires lists canonical lock names, sorted.
	Acquires []string
}

// AFact marks FuncFact as a fact type.
func (*FuncFact) AFact() {}

// GraphFact is one package's contribution to the global lock-acquisition
// graph: its declared locks (with hierarchy levels) and its edges.
type GraphFact struct {
	// Locks are the mutexes declared in this package.
	Locks []LockDecl
	// Edges are the acquired-while-held orderings witnessed in this
	// package.
	Edges []Edge
}

// AFact marks GraphFact as a fact type.
func (*GraphFact) AFact() {}

// LockDecl names one declared mutex and its canonical hierarchy level.
type LockDecl struct {
	// Name is the canonical lock name (pkg.Type.field or pkg.var).
	Name string
	// Level is the declared //lockorder:level; lower levels are acquired
	// first. Undeclared locks carry Level -1 and are exempt from the
	// hierarchy check (but not from cycle detection).
	Level int
}

// Edge records that From was held while To was acquired.
type Edge struct {
	// From and To are canonical lock names.
	From, To string
	// Fn is the witnessing function.
	Fn string
	// Pos is the witnessing site, file:line.
	Pos string
	// Allowed marks edges every witness of which carries
	// //lockorder:allow; they are excluded from cycle and hierarchy
	// checks but still drawn (dashed) in the DOT artifact.
	Allowed bool
}

// acqSite is one lock acquisition with the held set it happened under.
type acqSite struct {
	lock  string
	held  []string
	pos   token.Pos
	async bool // inside a goroutine body: not the function's own acquisition
}

// callSite is one statically resolvable call with the held set it happened
// under.
type callSite struct {
	callee types.Object
	held   []string
	pos    token.Pos
}

// fnInfo records the walk of one declared function.
type fnInfo struct {
	name     string // analysis.ObjectKey form
	obj      types.Object
	acquires []acqSite
	calls    []callSite
	trans    map[string]bool // fixpoint: locks this function may acquire
}

func (fn *fnInfo) acquire(lock string, pos token.Pos, held []heldLock, async bool) {
	fn.acquires = append(fn.acquires, acqSite{lock: lock, held: names(held), pos: pos, async: async})
}

func (fn *fnInfo) call(callee types.Object, pos token.Pos, held []heldLock) {
	fn.calls = append(fn.calls, callSite{callee: callee, held: names(held), pos: pos})
}

func (*fnInfo) block(string, token.Pos, []heldLock) {}
func (*fnInfo) exit(token.Pos, []heldLock)          {}

func names(held []heldLock) []string {
	out := make([]string, len(held))
	for i, h := range held {
		out[i] = h.name
	}
	return out
}

func runOrder(pass *analysis.Pass) error {
	dirs := analysis.NewDirectives(pass.Fset, pass.Files)
	decls := collectLockDecls(pass, dirs)
	var fns []*fnInfo
	walk(pass, func(name string, obj types.Object) events {
		fn := &fnInfo{name: name, obj: obj}
		fns = append(fns, fn)
		return fn
	})
	acquiresOf := summarize(pass, fns)
	for _, fn := range fns {
		if len(fn.trans) > 0 && fn.obj != nil {
			pass.ExportObjectFact(fn.obj, &FuncFact{Acquires: sortedKeys(fn.trans)})
		}
	}
	edges := buildEdges(pass, fns, dirs, acquiresOf)

	sort.Slice(decls, func(i, j int) bool { return decls[i].Name < decls[j].Name })
	own := &GraphFact{Locks: decls, Edges: make([]Edge, len(edges))}
	for i, e := range edges {
		own.Edges[i] = e.Edge
	}
	// The global graph: every edge exported by already-analyzed packages
	// (dependencies always; previously analyzed siblings too — lock names
	// are global identities, so their edges compose) plus this package's.
	levels, all := Graph(append(pass.AllPackageFacts(), analysis.PackageFact{Path: pass.Pkg.Path(), Fact: own}))
	global := make(map[string]map[string]Edge) // from -> to -> witness
	for _, e := range all {
		if e.Allowed {
			continue
		}
		if global[e.From] == nil {
			global[e.From] = make(map[string]Edge)
		}
		global[e.From][e.To] = e
	}

	// Hierarchy: every new edge must go strictly up the declared levels.
	for _, e := range edges {
		if e.Allowed {
			continue
		}
		if e.From == e.To {
			pass.Reportf(e.pos, "lock %s may be acquired while already held (via %s); sync.Mutex does not re-enter — restructure or annotate //lockorder:allow with the aliasing argument", e.From, e.Fn)
			continue
		}
		lf, lt := levels[e.From], levels[e.To]
		if lf >= 0 && lt >= 0 && lf >= lt {
			pass.Reportf(e.pos, "lock order violation: %s (level %d) is held while acquiring %s (level %d); the canonical hierarchy (DESIGN.md §12) requires strictly increasing levels — reorder the acquisitions, change the declared levels, or annotate //lockorder:allow", e.From, lf, e.To, lt)
		}
	}

	// Cycles: a new edge u->v closes a potential deadlock if v reaches u
	// in the global graph. Each distinct cycle is reported once per
	// package, at the closing edge.
	reported := make(map[string]bool)
	for _, e := range edges {
		if e.Allowed || e.From == e.To {
			continue
		}
		path := shortestPath(global, e.To, e.From)
		if path == nil {
			continue
		}
		cycle := append([]string{e.From, e.To}, path[1:]...)
		sig := cycleSignature(cycle)
		if reported[sig] {
			continue
		}
		reported[sig] = true
		var chain strings.Builder
		fmt.Fprintf(&chain, "[%s -> %s: %s at %s]", e.From, e.To, e.Fn, e.Pos)
		for i := 0; i+1 < len(path); i++ {
			w := global[path[i]][path[i+1]]
			fmt.Fprintf(&chain, " [%s -> %s: %s at %s]", path[i], path[i+1], w.Fn, w.Pos)
		}
		pass.Reportf(e.pos, "potential deadlock: lock-acquisition cycle %s; witness chain %s; break one edge or annotate //lockorder:allow with the exclusion argument",
			strings.Join(cycle, " -> "), chain.String())
	}

	pass.ExportPackageFact(own)
	return nil
}

// collectLockDecls finds every declared mutex (struct fields and
// package-level vars, non-test files), resolves its //lockorder:level,
// and reports declarations that omit one.
func collectLockDecls(pass *analysis.Pass, dirs *analysis.Directives) []LockDecl {
	var decls []LockDecl
	pkgPath := pass.Pkg.Path()
	add := func(name string, pos token.Pos) {
		rest, _ := dirs.Lookup(pos, "lockorder:level")
		level, err := strconv.Atoi(strings.TrimSpace(rest))
		if err != nil {
			level = -1
			pass.Reportf(pos, "mutex %s declares no place in the lock hierarchy; annotate the declaration with //lockorder:level N (canonical table: DESIGN.md §12)", name)
		}
		decls = append(decls, LockDecl{Name: name, Level: level})
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f) {
			continue
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					st, ok := sp.Type.(*ast.StructType)
					if !ok {
						continue
					}
					for _, field := range st.Fields.List {
						tv, ok := pass.TypesInfo.Types[field.Type]
						if !ok || !isMutex(tv.Type) {
							continue
						}
						if len(field.Names) == 0 { // embedded sync.Mutex
							add(pkgPath+"."+sp.Name.Name+".Mutex", field.Pos())
							continue
						}
						for _, name := range field.Names {
							add(pkgPath+"."+sp.Name.Name+"."+name.Name, name.Pos())
						}
					}
				case *ast.ValueSpec:
					for _, name := range sp.Names {
						obj := pass.TypesInfo.Defs[name]
						if gd.Tok == token.VAR && obj != nil && isMutex(obj.Type()) && obj.Parent() == pass.Pkg.Scope() {
							add(pkgPath+"."+name.Name, name.Pos())
						}
					}
				}
			}
		}
	}
	return decls
}

// summarize runs the intra-package fixpoint: each function's transitive
// acquire set is its own acquisitions plus the sets of its same-package
// callees (iterated to fixpoint) plus the imported FuncFact summaries of
// cross-package callees (already final, by dependency order). It returns
// the lookup of a callee's set, sorted.
func summarize(pass *analysis.Pass, fns []*fnInfo) func(types.Object) []string {
	local := make(map[types.Object]*fnInfo, len(fns))
	for _, fn := range fns {
		fn.trans = make(map[string]bool)
		for _, a := range fn.acquires {
			if !a.async {
				fn.trans[a.lock] = true
			}
		}
		if fn.obj != nil {
			local[fn.obj] = fn
		}
	}
	imported := make(map[types.Object][]string)
	acquiresOf := func(callee types.Object) []string {
		if fn, ok := local[callee]; ok {
			return sortedKeys(fn.trans)
		}
		acq, ok := imported[callee]
		if !ok {
			var fact FuncFact
			pass.ImportObjectFact(callee, &fact)
			acq = fact.Acquires
			imported[callee] = acq
		}
		return acq
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, c := range fn.calls {
				for _, lock := range acquiresOf(c.callee) {
					if !fn.trans[lock] {
						fn.trans[lock] = true
						changed = true
					}
				}
			}
		}
	}
	return acquiresOf
}

// localEdge pairs an exported Edge with its in-process report position.
type localEdge struct {
	Edge
	pos token.Pos
}

// buildEdges derives this package's contribution to the global graph:
// direct acquisition edges, call edges through transitive summaries, and
// manual //lockorder:edge declarations. Edges are deduplicated by
// (From, To); an edge is Allowed only if every witness is.
func buildEdges(pass *analysis.Pass, fns []*fnInfo, dirs *analysis.Directives, acquiresOf func(types.Object) []string) []localEdge {
	index := make(map[[2]string]int)
	var edges []localEdge
	add := func(from, to, fn string, pos token.Pos, allowed bool) {
		p := pass.Fset.Position(pos)
		e := localEdge{Edge{From: from, To: to, Fn: fn, Pos: fmt.Sprintf("%s:%d", p.Filename[strings.LastIndex(p.Filename, "/")+1:], p.Line), Allowed: allowed}, pos}
		i, ok := index[[2]string{from, to}]
		switch {
		case !ok:
			index[[2]string{from, to}] = len(edges)
			edges = append(edges, e)
		case edges[i].Allowed && !allowed:
			edges[i] = e
		}
	}
	for _, fn := range fns {
		for _, a := range fn.acquires {
			for _, h := range a.held {
				add(h, a.lock, fn.name, a.pos, dirs.Allowed(a.pos, "lockorder"))
			}
		}
		for _, c := range fn.calls {
			if len(c.held) == 0 {
				continue
			}
			for _, lock := range acquiresOf(c.callee) {
				for _, h := range c.held {
					add(h, lock, fn.name+" -> "+c.callee.Name(), c.pos, dirs.Allowed(c.pos, "lockorder"))
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if rest, ok := strings.CutPrefix(c.Text, "//lockorder:edge"); ok {
					if fields := strings.Fields(rest); len(fields) == 2 {
						add(fields[0], fields[1], "(declared edge)", c.Pos(), false)
					}
				}
			}
		}
	}
	return edges
}

// shortestPath BFSes from src to dst over the non-allowed global edges,
// returning the node path [src, ..., dst] (nil when unreachable).
// Deterministic: neighbors visited in sorted order.
func shortestPath(global map[string]map[string]Edge, src, dst string) []string {
	prev := map[string]string{src: ""}
	queue := []string{src}
	for len(queue) > 0 {
		node := queue[0]
		queue = queue[1:]
		if node == dst {
			var path []string
			for n := dst; n != ""; n = prev[n] {
				path = append([]string{n}, path...)
				if n == src {
					break
				}
			}
			return path
		}
		next := make([]string, 0, len(global[node]))
		for to := range global[node] {
			if _, seen := prev[to]; !seen {
				next = append(next, to)
			}
		}
		sort.Strings(next)
		for _, to := range next {
			prev[to] = node
			queue = append(queue, to)
		}
	}
	return nil
}

// cycleSignature canonicalizes a cycle's node set for dedup — the same
// cycle is discovered once per participating edge, under rotations.
func cycleSignature(nodes []string) string {
	set := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	return strings.Join(sortedKeys(set), "|")
}

// Graph merges the GraphFacts among facts into the global lock-acquisition
// graph: every lock that is declared or on an edge, with its declared
// level (-1 when it has none), and one edge per (From, To) in sorted
// order. A merged edge keeps its first witness that is not allowed, and
// is Allowed only when every witness is.
func Graph(facts []analysis.PackageFact) (levels map[string]int, edges []Edge) {
	levels = make(map[string]int)
	byKey := make(map[[2]string]int)
	for _, pf := range facts {
		gf, ok := pf.Fact.(*GraphFact)
		if !ok {
			continue
		}
		for _, d := range gf.Locks {
			if _, seen := levels[d.Name]; !seen || d.Level >= 0 {
				levels[d.Name] = d.Level
			}
		}
		for _, e := range gf.Edges {
			for _, n := range []string{e.From, e.To} {
				if _, seen := levels[n]; !seen {
					levels[n] = -1
				}
			}
			i, ok := byKey[[2]string{e.From, e.To}]
			switch {
			case !ok:
				byKey[[2]string{e.From, e.To}] = len(edges)
				edges = append(edges, e)
			case edges[i].Allowed && !e.Allowed:
				edges[i] = e
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	return levels, edges
}

// WriteDOT renders the global lock-acquisition graph assembled from every
// GraphFact in facts as Graphviz DOT: one node per lock (labeled with its
// declared level), solid edges for enforced orderings with the witness as
// tooltip, dashed edges for //lockorder:allow'd ones. cmd/elslint's
// -lockdot flag writes this for the CI artifact.
func WriteDOT(w io.Writer, facts []analysis.PackageFact) error {
	levels, edges := Graph(facts)
	if _, err := fmt.Fprintln(w, "digraph lockorder {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  rankdir=LR;")
	fmt.Fprintln(w, "  node [shape=box, fontname=\"monospace\"];")
	for _, n := range sortedKeys(levels) {
		label := n
		if lvl := levels[n]; lvl >= 0 {
			label = fmt.Sprintf("%s\\nlevel %d", n, lvl)
		}
		fmt.Fprintf(w, "  %q [label=%q];\n", n, label)
	}
	for _, e := range edges {
		style := "solid"
		if e.Allowed {
			style = "dashed"
		}
		fmt.Fprintf(w, "  %q -> %q [style=%s, tooltip=%q];\n",
			e.From, e.To, style, e.Fn+" at "+e.Pos)
	}
	_, err := fmt.Fprintln(w, "}")
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
