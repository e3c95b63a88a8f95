package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed, and type-checked package ready for
// analysis.
type Package struct {
	// Path is the package's import path.
	Path string
	// Dir is the package's source directory.
	Dir string
	// Fset maps positions for Files.
	Fset *token.FileSet
	// Files are the parsed non-test Go files; every analyzer exempts
	// tests, so test files are never loaded.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checking results.
	Info *types.Info
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
}

// ExportIndex maps import paths to compiled export-data files, the key to
// type-checking packages offline: instead of recursively type-checking
// every dependency from source, dependencies are imported from the export
// data the go toolchain already produced (`go list -export` populates the
// build cache as needed, with no network access).
type ExportIndex struct {
	exports map[string]string
}

// Lookup returns a reader of the export data for path.
func (ix *ExportIndex) Lookup(path string) (io.ReadCloser, error) {
	f, ok := ix.exports[path]
	if !ok || f == "" {
		return nil, fmt.Errorf("no export data for package %q", path)
	}
	return os.Open(f)
}

// Importer returns a types.Importer that resolves imports through the
// index.
func (ix *ExportIndex) Importer(fset *token.FileSet) types.Importer {
	return importer.ForCompiler(fset, "gc", ix.Lookup)
}

// goList runs `go list -deps -export -json` in dir for the given patterns
// and decodes the package stream.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportIndex indexes the export data of listed packages by import path.
func exportIndex(pkgs []listedPackage) *ExportIndex {
	ix := &ExportIndex{exports: make(map[string]string, len(pkgs))}
	for _, p := range pkgs {
		if p.Export != "" {
			ix.exports[p.ImportPath] = p.Export
		}
	}
	return ix
}

// ResolveExports builds an ExportIndex covering the given import-path
// patterns and their transitive dependencies.
func ResolveExports(dir string, patterns ...string) (*ExportIndex, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	return exportIndex(pkgs), nil
}

// newInfo allocates a fully populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

// CheckFiles parses and type-checks one package from explicit file paths,
// resolving imports through imp. Used by Load and by the analysistest
// harness.
func CheckFiles(fset *token.FileSet, path string, filenames []string, imp types.Importer) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	dir := ""
	if len(filenames) > 0 {
		dir = filepath.Dir(filenames[0])
	}
	return &Package{Path: path, Dir: dir, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}

// Load lists, parses, and type-checks the packages matching patterns
// (relative to dir, e.g. "./..."), skipping packages that were pulled in
// only as dependencies. It is elslint's loader: everything resolves
// through the local toolchain and build cache, offline.
func Load(dir string, patterns ...string) ([]*Package, error) {
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := exportIndex(pkgs).Importer(fset)
	var out []*Package
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		filenames := make([]string, len(p.GoFiles))
		for i, f := range p.GoFiles {
			filenames[i] = filepath.Join(p.Dir, f)
		}
		pkg, err := CheckFiles(fset, p.ImportPath, filenames, imp)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}
