// Package analysistest runs an analyzer over testdata packages and checks
// its diagnostics against expectations written in the sources, mirroring
// golang.org/x/tools/go/analysis/analysistest.
//
// Each expectation is a comment of the form
//
//	// want "regexp" "another regexp"
//
// on the line where a diagnostic is expected. Every diagnostic must match
// exactly one expectation on its line and every expectation must be
// consumed, so tests pin both that violations are caught and that accepted
// idioms stay silent.
//
// Testdata layout follows the x/tools convention: the files of package
// pattern P live in testdata/src/P/ relative to the test, and a testdata
// package may import another testdata package by its pattern path —
// imports resolve into testdata/src/ first, which is how multi-package
// fixtures exercise cross-package facts (a lockorder fixture's dependent
// package imports the package whose locks it misorders). Imports with no
// testdata directory (standard library, repro/...) are resolved offline
// through the build cache (see analysis.ResolveExports; the resolution is
// memoized process-wide, so a test file with many Run calls pays for one
// `go list` only).
//
// Run drives the facts-capable driver: the analyzer runs over every loaded
// testdata package in dependency order with a shared fact database, then
// its diagnostics — from all loaded packages — are matched against the
// want expectations.
package analysistest

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// Run applies a to each testdata package named by patterns plus their
// testdata imports, and reports mismatches between a's diagnostics and
// // want expectations through t.
func Run(t *testing.T, a *analysis.Analyzer, patterns ...string) {
	t.Helper()
	ld := &loader{
		fset: token.NewFileSet(),
		pkgs: make(map[string]*analysis.Package),
		busy: make(map[string]bool),
	}
	for _, pat := range patterns {
		if _, err := ld.load(pat); err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
	}
	pkgs := make([]*analysis.Package, 0, len(ld.pkgs))
	for _, pkg := range ld.pkgs {
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })

	findings, mals, _ := analysis.RunPackages(pkgs, []*analysis.Analyzer{a})
	for _, m := range mals {
		t.Fatalf("%s malfunctioned on %s: %s", m.Analyzer, m.Package, m.Err)
	}

	expects := collectExpectations(t, ld.fset, pkgs)
	for _, f := range findings {
		key := posKey{filepath.Base(f.Pos.Filename), f.Pos.Line}
		matched := false
		for _, e := range expects[key] {
			if !e.used && e.re.MatchString(f.Message) {
				e.used = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s: %s", f.Package, f.Pos, f.Message)
		}
	}
	for key, es := range expects {
		for _, e := range es {
			if !e.used {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none",
					key.file, key.line, e.re.String())
			}
		}
	}
}

// loader type-checks testdata packages, recursing through testdata-local
// imports and falling back to build-cache export data for everything
// else.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*analysis.Package
	busy map[string]bool // import-cycle guard

	fallbackOnce sync.Once
	fallback     types.Importer
	fallbackErr  error
}

// testdataDir returns the source directory for pattern, or "" if the
// pattern names no testdata package.
func testdataDir(pattern string) string {
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pattern))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		return dir
	}
	return ""
}

func (ld *loader) load(pattern string) (*analysis.Package, error) {
	if pkg, ok := ld.pkgs[pattern]; ok {
		return pkg, nil
	}
	if ld.busy[pattern] {
		return nil, fmt.Errorf("testdata import cycle through %q", pattern)
	}
	ld.busy[pattern] = true
	defer delete(ld.busy, pattern)

	dir := testdataDir(pattern)
	if dir == "" {
		return nil, fmt.Errorf("no testdata sources in testdata/src/%s", pattern)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(names) == 0 {
		return nil, fmt.Errorf("no testdata sources in %s (%v)", dir, err)
	}
	sort.Strings(names)
	pkg, err := analysis.CheckFiles(ld.fset, pattern, names, importerFunc(ld.importPkg))
	if err != nil {
		return nil, err
	}
	ld.pkgs[pattern] = pkg
	return pkg, nil
}

// importPkg resolves one import during type-checking: testdata packages
// load (and analyze later) from source; everything else comes from export
// data.
func (ld *loader) importPkg(path string) (*types.Package, error) {
	if testdataDir(path) != "" {
		pkg, err := ld.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	ld.fallbackOnce.Do(func() {
		ld.fallback, ld.fallbackErr = sharedExportImporter(ld.fset)
	})
	if ld.fallbackErr != nil {
		return nil, ld.fallbackErr
	}
	return ld.fallback.Import(path)
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// exportMemo caches the `go list -export` resolution per working
// directory for the life of the test process: one go list run per test
// binary, no matter how many analyzers or Run calls share it.
var exportMemo struct {
	sync.Mutex
	byDir map[string]*analysis.ExportIndex
	errs  map[string]error
}

// sharedExportImporter scans the whole testdata tree for non-testdata
// imports and resolves them (and their transitive dependencies) through
// the build cache in a single memoized `go list -export` invocation.
func sharedExportImporter(fset *token.FileSet) (types.Importer, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	exportMemo.Lock()
	defer exportMemo.Unlock()
	if exportMemo.byDir == nil {
		exportMemo.byDir = make(map[string]*analysis.ExportIndex)
		exportMemo.errs = make(map[string]error)
	}
	if ix, ok := exportMemo.byDir[wd]; ok {
		return ix.Importer(fset), nil
	}
	if err, ok := exportMemo.errs[wd]; ok {
		return nil, err
	}
	patterns, err := externalImports()
	if err != nil {
		exportMemo.errs[wd] = err
		return nil, err
	}
	if len(patterns) == 0 {
		exportMemo.errs[wd] = fmt.Errorf("testdata imports nothing external")
		return nil, exportMemo.errs[wd]
	}
	ix, err := analysis.ResolveExports(wd, patterns...)
	if err != nil {
		exportMemo.errs[wd] = err
		return nil, err
	}
	exportMemo.byDir[wd] = ix
	return ix.Importer(fset), nil
}

// externalImports collects every import path mentioned anywhere under
// testdata/src that is not itself a testdata package.
func externalImports() ([]string, error) {
	seen := make(map[string]bool)
	ifset := token.NewFileSet()
	err := filepath.Walk(filepath.Join("testdata", "src"), func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(ifset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, im := range f.Imports {
			if p, err := strconv.Unquote(im.Path.Value); err == nil && testdataDir(p) == "" {
				seen[p] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	patterns := make([]string, 0, len(seen))
	for p := range seen {
		patterns = append(patterns, p)
	}
	sort.Strings(patterns)
	return patterns, nil
}

type posKey struct {
	file string
	line int
}

type expectation struct {
	re   *regexp.Regexp
	used bool
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectExpectations scans every comment of every loaded testdata
// package for // want clauses and indexes them by (file, line).
func collectExpectations(t *testing.T, fset *token.FileSet, pkgs []*analysis.Package) map[posKey][]*expectation {
	t.Helper()
	out := make(map[posKey][]*expectation)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					key := posKey{filepath.Base(pos.Filename), pos.Line}
					for _, pat := range splitQuoted(m[1]) {
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						out[key] = append(out[key], &expectation{re: re})
					}
				}
			}
		}
	}
	return out
}

// splitQuoted extracts the double-quoted or backquoted regexps from a want
// clause tail such as `"first" "second"`.
func splitQuoted(s string) []string {
	var out []string
	for {
		s = strings.TrimLeft(s, " \t")
		if s == "" {
			return out
		}
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '"' && s[i-1] != '\\' {
					end = i
					break
				}
			}
			if end < 0 {
				return out
			}
			if unq, err := strconv.Unquote(s[:end+1]); err == nil {
				out = append(out, unq)
			}
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return out
			}
			out = append(out, s[1:1+end])
			s = s[2+end:]
		default:
			return out
		}
	}
}
