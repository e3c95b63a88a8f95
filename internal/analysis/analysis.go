// Package analysis is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis driver API, just large enough to host the
// elslint invariant checkers (internal/analyzers) and their analysistest
// suites without adding a module dependency.
//
// The shapes follow x/tools — Analyzer{Name, Doc, FactTypes, Run},
// Pass{Fset, Files, Pkg, TypesInfo, Report, ExportObjectFact,
// ImportObjectFact, ExportPackageFact} — with only what the elslint
// analyzers use: no analyzer runs before another or reads its result, so
// Run returns an error alone. The driver (RunPackages) applies every
// analyzer to packages in `go list` dependency order, in one process, with
// facts flowing from each package to its dependents. Directives indexes
// the //tool:verb comment escapes the analyzers share.
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
	// FactTypes declares the fact types this analyzer exports, each a
	// pointer to a struct.
	FactTypes []Fact
	// Run applies the analyzer to one package. It reports findings through
	// Pass.Report/Reportf and returns an error only for analyzer
	// malfunctions, never for findings.
	Run func(*Pass) error
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

// Directives indexes a package's directive comments — line comments of the
// form //tool:verb args, with no space after the slashes — by file and
// line. A directive covers its own line (a trailing comment) and the line
// below it (a comment above the statement or declaration).
type Directives struct {
	fset   *token.FileSet
	byLine map[string]map[int][]string // filename -> line -> texts without the //
}

// NewDirectives indexes the directive comments of files.
func NewDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{fset: fset, byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok || !strings.Contains(text, ":") || strings.HasPrefix(text, " ") {
					continue
				}
				pos := fset.Position(c.Pos())
				if d.byLine[pos.Filename] == nil {
					d.byLine[pos.Filename] = make(map[int][]string)
				}
				d.byLine[pos.Filename][pos.Line] = append(d.byLine[pos.Filename][pos.Line], text)
			}
		}
	}
	return d
}

// Lookup returns the rest of the first directive covering pos that starts
// with prefix (such as "lockorder:level"), the line above first.
func (d *Directives) Lookup(pos token.Pos, prefix string) (string, bool) {
	p := d.fset.Position(pos)
	for _, line := range [2]int{p.Line - 1, p.Line} {
		for _, text := range d.byLine[p.Filename][line] {
			if rest, ok := strings.CutPrefix(text, prefix); ok {
				return rest, true
			}
		}
	}
	return "", false
}

// Allowed reports whether pos carries the escape //<tool>:allow <reason>.
func (d *Directives) Allowed(pos token.Pos, tool string) bool {
	_, ok := d.Lookup(pos, tool+":allow")
	return ok
}
