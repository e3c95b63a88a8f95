package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Schedule expands roots into the full analyzer schedule: the transitive
// Requires closure, topologically sorted so every analyzer runs after its
// prerequisites, deterministically (ties broken by name). It rejects
// duplicate analyzer names, nil entries, and Requires cycles — the
// registry test in internal/analyzers pins all three properties for the
// shipped suite.
func Schedule(roots []*Analyzer) ([]*Analyzer, error) {
	var (
		out    []*Analyzer
		state  = make(map[*Analyzer]int) // 0 unvisited, 1 visiting, 2 done
		byName = make(map[string]*Analyzer)
		visit  func(a *Analyzer, path []string) error
		sorted = func(as []*Analyzer) []*Analyzer {
			cp := append([]*Analyzer(nil), as...)
			sort.Slice(cp, func(i, j int) bool { return cp[i].Name < cp[j].Name })
			return cp
		}
	)
	visit = func(a *Analyzer, path []string) error {
		if a == nil {
			return fmt.Errorf("nil analyzer in Requires of %v", path)
		}
		if prev, ok := byName[a.Name]; ok && prev != a {
			return fmt.Errorf("two analyzers share the name %q", a.Name)
		}
		byName[a.Name] = a
		switch state[a] {
		case 2:
			return nil
		case 1:
			return fmt.Errorf("analyzer requirement cycle: %v -> %s", path, a.Name)
		}
		state[a] = 1
		for _, req := range sorted(a.Requires) {
			if err := visit(req, append(path, a.Name)); err != nil {
				return err
			}
		}
		state[a] = 2
		out = append(out, a)
		return nil
	}
	for _, a := range sorted(roots) {
		if err := visit(a, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Finding is one diagnostic, attributed to its analyzer and package.
type Finding struct {
	// Package is the import path of the package the finding is in.
	Package string
	// Analyzer is the reporting analyzer's name.
	Analyzer string
	// Pos is the resolved source position.
	Pos token.Position
	// Message states the contract violation.
	Message string
}

// Malfunction records an analyzer failure (a Run error or panic) —
// distinct from findings: a malfunctioning analyzer means the run's
// verdict on its invariant is unknown, which cmd/elslint surfaces as exit
// status 2 rather than 1.
type Malfunction struct {
	// Package is the package being analyzed when the analyzer failed.
	Package string
	// Analyzer is the failing analyzer's name.
	Analyzer string
	// Err describes the failure.
	Err string
}

// runProtected applies one analyzer to one pass, converting panics into
// malfunction errors so a crashing checker cannot take down the whole
// run (the other analyzers' verdicts still count).
func runProtected(a *Analyzer, pass *Pass) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return a.Run(pass)
}

// SortPackages orders pkgs dependency-first among themselves (imports
// before importers), with deterministic ties (import-path order). The
// ordering is what makes single-pass fact flow sound: by the time a
// package is analyzed, every fact its dependencies export is already in
// the database.
func SortPackages(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	indeg := make(map[string]int, len(pkgs))
	dependents := make(map[string][]string, len(pkgs))
	for _, p := range pkgs {
		if _, ok := indeg[p.Path]; !ok {
			indeg[p.Path] = 0
		}
		for _, imp := range p.Types.Imports() {
			if _, ours := byPath[imp.Path()]; ours {
				indeg[p.Path]++
				dependents[imp.Path()] = append(dependents[imp.Path()], p.Path)
			}
		}
	}
	ready := make([]string, 0, len(pkgs))
	for path, d := range indeg {
		if d == 0 {
			ready = append(ready, path)
		}
	}
	sort.Strings(ready)
	out := make([]*Package, 0, len(pkgs))
	for len(ready) > 0 {
		path := ready[0]
		ready = ready[1:]
		out = append(out, byPath[path])
		next := append([]string(nil), dependents[path]...)
		sort.Strings(next)
		for _, dep := range next {
			if indeg[dep]--; indeg[dep] == 0 {
				ready = append(ready, dep)
				sort.Strings(ready)
			}
		}
	}
	// An import cycle among the analyzed packages is impossible in a
	// compiling module; if type information was somehow inconsistent, fall
	// back to appending the leftovers in path order rather than dropping
	// them.
	if len(out) < len(pkgs) {
		missing := make([]string, 0)
		for path, d := range indeg {
			if d > 0 {
				missing = append(missing, path)
			}
		}
		sort.Strings(missing)
		for _, path := range missing {
			out = append(out, byPath[path])
		}
	}
	return out
}

// RunPackages applies the analyzer schedule derived from roots to every
// package, dependency-first, threading facts through facts (a fresh
// NewFactSet(schedule)). Packages are type-checked once, before this call
// — the schedule shares each Package across all analyzers. It returns
// every finding and every malfunction; the error covers driver-level
// problems (schedule cycles) only.
func RunPackages(pkgs []*Package, roots []*Analyzer, facts *FactSet) ([]Finding, []Malfunction, error) {
	schedule, err := Schedule(roots)
	if err != nil {
		return nil, nil, err
	}
	var (
		findings []Finding
		mals     []Malfunction
	)
	for _, pkg := range SortPackages(pkgs) {
		results := make(map[*Analyzer]any, len(schedule))
		failed := make(map[*Analyzer]bool)
		for _, a := range schedule {
			resultOf := make(map[*Analyzer]any, len(a.Requires))
			skip := false
			for _, req := range a.Requires {
				if failed[req] {
					skip = true // prerequisite malfunctioned; its facts/results are unreliable
					break
				}
				resultOf[req] = results[req]
			}
			if skip {
				failed[a] = true
				mals = append(mals, Malfunction{Package: pkg.Path, Analyzer: a.Name,
					Err: "skipped: a required analyzer malfunctioned"})
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				ResultOf:  resultOf,
				facts:     facts,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Package:  pkg.Path,
					Analyzer: a.Name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			res, err := runProtected(a, pass)
			if err != nil {
				failed[a] = true
				mals = append(mals, Malfunction{Package: pkg.Path, Analyzer: a.Name, Err: err.Error()})
				continue
			}
			results[a] = res
		}
	}
	return findings, mals, nil
}
