package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// seenFact is the package fact the mark analyzer exports.
type seenFact struct{}

func (*seenFact) AFact() {}

// importMap resolves imports from already type-checked packages.
type importMap map[string]*types.Package

func (m importMap) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("no package %q", path)
}

// checkSource type-checks one single-file package written to dir.
func checkSource(t *testing.T, fset *token.FileSet, dir, path, src string, imp importMap) *Package {
	t.Helper()
	name := filepath.Join(dir, path+".go")
	if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := CheckFiles(fset, path, []string{name}, imp)
	if err != nil {
		t.Fatal(err)
	}
	imp[path] = pkg.Types
	return pkg
}

// TestRunPackagesIsolatesAPanic pins that an analyzer that panics on one
// package becomes exactly one Malfunction, while another analyzer's
// findings and facts on the same packages still come back, in dependency
// order.
func TestRunPackagesIsolatesAPanic(t *testing.T) {
	fset, dir, imp := token.NewFileSet(), t.TempDir(), importMap{}
	base := checkSource(t, fset, dir, "base", "package base\n\nfunc F() {}\n", imp)
	top := checkSource(t, fset, dir, "top", "package top\n\nimport \"base\"\n\nfunc G() { base.F() }\n", imp)

	boom := &Analyzer{Name: "boom", Doc: "panics on base", Run: func(pass *Pass) error {
		if pass.Pkg.Path() == "base" {
			panic("boom")
		}
		return nil
	}}
	mark := &Analyzer{Name: "mark", Doc: "reports each package and the facts before it", FactTypes: []Fact{new(seenFact)},
		Run: func(pass *Pass) error {
			pass.Reportf(pass.Files[0].Package, "%s after %d", pass.Pkg.Path(), len(pass.AllPackageFacts()))
			pass.ExportPackageFact(&seenFact{})
			return nil
		}}

	findings, mals, facts := RunPackages([]*Package{top, base}, []*Analyzer{boom, mark})
	if want := []Malfunction{{Package: "base", Analyzer: "boom", Err: "panic: boom"}}; !reflect.DeepEqual(mals, want) {
		t.Errorf("malfunctions = %+v, want %+v", mals, want)
	}
	var got []string
	for _, f := range findings {
		got = append(got, f.Analyzer+": "+f.Message)
	}
	if want := []string{"mark: base after 0", "mark: top after 1"}; !reflect.DeepEqual(got, want) {
		t.Errorf("findings = %q, want %q", got, want)
	}
	if n := len(facts.AllPackageFacts()); n != 2 {
		t.Errorf("returned fact set holds %d package facts, want 2", n)
	}
}
