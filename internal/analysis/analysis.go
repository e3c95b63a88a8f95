// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver API, just large enough to host the
// elslint invariant checkers (internal/analyzers) and their analysistest
// suites without adding a module dependency.
//
// The shapes mirror x/tools deliberately — Analyzer{Name, Doc, Requires,
// FactTypes, Run}, Pass{Fset, Files, Pkg, TypesInfo, ResultOf, Report,
// ExportObjectFact, ImportObjectFact, ExportPackageFact,
// ImportPackageFact} — so every analyzer written against this package
// ports to the real go/analysis API near-verbatim if the dependency is
// ever vendored. The driver (RunPackages) applies a Requires-ordered
// analyzer schedule to packages in `go list` dependency order, in one
// process, with facts flowing from each package to its dependents; see
// facts.go for the one deliberate deviation from x/tools (facts are
// namespaced by type, not by analyzer, so a dependent analyzer can read
// its prerequisite's facts).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -json output.
	Name string
	// Doc states the enforced invariant, first line first.
	Doc string
	// Requires lists analyzers that must run on each package before this
	// one; their results for the same package arrive via Pass.ResultOf and
	// their facts (for this package's dependencies) are importable. The
	// driver schedules the transitive closure and rejects cycles.
	Requires []*Analyzer
	// FactTypes declares the fact types this analyzer exports, each a
	// pointer to a struct. An analyzer with no declared fact types may
	// still import facts declared by its Requires.
	FactTypes []Fact
	// Run applies the analyzer to one package. It reports findings through
	// Pass.Report/Reportf and returns an error only for analyzer
	// malfunctions, never for findings.
	Run func(*Pass) (any, error)
}

// Pass carries one package's syntax and type information to an analyzer.
type Pass struct {
	// Analyzer is the analyzer being run.
	Analyzer *Analyzer
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checking results for Files.
	TypesInfo *types.Info
	// ResultOf holds the results the Analyzer.Requires analyzers returned
	// for this same package.
	ResultOf map[*Analyzer]any
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	facts *FactSet
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj, which must belong to the package
// being analyzed. A fact of an undeclared type panics here (the driver
// converts the panic into an analyzer malfunction).
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.facts == nil {
		panic(fmt.Sprintf("%s: ExportObjectFact outside a facts-capable driver run", p.Analyzer.Name))
	}
	if obj == nil || obj.Pkg() == nil || obj.Pkg() != p.Pkg {
		panic(fmt.Sprintf("%s: ExportObjectFact: object %v is not from package %s", p.Analyzer.Name, obj, p.Pkg.Path()))
	}
	if err := p.facts.export(p.Pkg.Path(), ObjectKey(obj), fact); err != nil {
		panic(fmt.Sprintf("%s: %v", p.Analyzer.Name, err))
	}
}

// ImportObjectFact copies the fact of fact's type attached to obj (by
// this package's run or by any dependency's) into fact, reporting whether
// one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.facts == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	return p.facts.importInto(obj.Pkg().Path(), ObjectKey(obj), fact)
}

// ExportPackageFact attaches fact to the package being analyzed.
func (p *Pass) ExportPackageFact(fact Fact) {
	if p.facts == nil {
		panic(fmt.Sprintf("%s: ExportPackageFact outside a facts-capable driver run", p.Analyzer.Name))
	}
	if err := p.facts.export(p.Pkg.Path(), "", fact); err != nil {
		panic(fmt.Sprintf("%s: %v", p.Analyzer.Name, err))
	}
}

// ImportPackageFact copies the package-level fact of fact's type
// exported by pkg into fact, reporting whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	if p.facts == nil || pkg == nil {
		return false
	}
	return p.facts.importInto(pkg.Path(), "", fact)
}

// AllPackageFacts returns every package-level fact currently in the fact
// database (this package's and all previously analyzed packages'), in
// deterministic order. The lockorder analyzer assembles the global
// lock-acquisition graph from these.
func (p *Pass) AllPackageFacts() []PackageFact {
	if p.facts == nil {
		return nil
	}
	return p.facts.AllPackageFacts()
}

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states the contract violation and the expected idiom.
	Message string
}

// IsTestFile reports whether file was parsed from a _test.go file. The
// elslint contracts deliberately exempt tests (tests spawn goroutines,
// build root contexts, and fabricate errors by design).
func IsTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.Position(file.Pos()).Filename, "_test.go")
}

// PathHasSuffix reports whether the import path equals suffix or ends with
// "/"+suffix. Analyzers match packages by path suffix so that their
// analysistest testdata packages (loaded under short synthetic paths such
// as "internal/workpool") exercise the same allow/deny decisions as the
// real module packages ("repro/internal/workpool").
func PathHasSuffix(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}
