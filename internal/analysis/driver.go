package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

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
func runProtected(a *Analyzer, pass *Pass) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return a.Run(pass)
}

// sortPackages orders pkgs dependency-first among themselves (imports
// before importers), with deterministic ties (import-path order). The
// ordering is what makes single-pass fact flow sound: by the time a
// package is analyzed, every fact its dependencies export is already in
// the database.
func sortPackages(pkgs []*Package) []*Package {
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

// RunPackages applies every analyzer to every package, dependency-first,
// threading facts through a fresh FactSet, which it returns for consumers
// of the whole module's facts (cmd/elslint -lockdot). Packages are
// type-checked once, before this call, and shared across all analyzers.
// It returns every finding and every malfunction.
func RunPackages(pkgs []*Package, analyzers []*Analyzer) ([]Finding, []Malfunction, *FactSet) {
	var (
		facts    = newFactSet(analyzers)
		findings []Finding
		mals     []Malfunction
	)
	for _, pkg := range sortPackages(pkgs) {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
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
			if err := runProtected(a, pass); err != nil {
				mals = append(mals, Malfunction{Package: pkg.Path, Analyzer: a.Name, Err: err.Error()})
			}
		}
	}
	return findings, mals, facts
}
