// Command elslint runs the repro invariant-checker suite
// (internal/analyzers) over the module with the facts-capable driver:
// packages are type-checked once, analyzed in dependency order, and the
// facts each analyzer exports (lock-acquisition summaries) flow to its
// dependents. It has two modes:
//
// Standalone — load, type-check, and analyze packages directly:
//
//	go run ./cmd/elslint ./...
//	go run ./cmd/elslint -json ./... > lint.json
//	go run ./cmd/elslint -lockdot lockorder.dot ./...
//
// Vettool — speak cmd/go's unitchecker protocol so the suite runs under
// the build system's dependency-aware driver, with facts shipped between
// compilation units as .vetx files:
//
//	go build -o elslint ./cmd/elslint
//	go vet -vettool=./elslint ./...
//
// Standalone exit status: 0 clean, 1 when findings were reported, 2 when
// an analyzer malfunctioned (its verdict is unknown — distinct from "the
// tree is dirty"). The -json artifact distinguishes the two as separate
// "findings" and "malfunctions" arrays, deterministically sorted.
// Vettool mode keeps the protocol's convention: diagnostics exit 2.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analyzers"
	"repro/internal/analyzers/lockorder"
)

func main() {
	args := os.Args[1:]
	// cmd/go probes the tool for its identity and flags before using it as
	// a vettool; both probes must answer before normal flag parsing.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		printVersion()
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]") // no tool-specific vet flags
		return
	}
	if len(args) > 0 && strings.HasSuffix(args[len(args)-1], ".cfg") {
		os.Exit(unitcheck(args[len(args)-1]))
	}
	os.Exit(standalone(args))
}

// printVersion answers go vet's -V=full probe. cmd/go requires the line
// "<name> version devel buildID=<id>" and caches vet results under the
// id, so the id must change when the tool changes: hash the executable.
func printVersion() {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:12])
			}
			f.Close()
		}
	}
	fmt.Printf("elslint version devel buildID=%s\n", id)
}

// findingJSON is one diagnostic in the -json artifact.
type findingJSON struct {
	Package  string `json:"package"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// malfunctionJSON is one analyzer failure in the -json artifact — the
// analyzer's verdict on its package is unknown, which is a different
// condition from a finding and carries a different exit status.
type malfunctionJSON struct {
	Package  string `json:"package"`
	Analyzer string `json:"analyzer"`
	Error    string `json:"error"`
}

// reportJSON is the complete machine-readable run artifact.
type reportJSON struct {
	Findings     []findingJSON     `json:"findings"`
	Malfunctions []malfunctionJSON `json:"malfunctions"`
}

// standalone loads the named packages (default ./...), type-checks each
// exactly once, and runs the full analyzer schedule over all of them in
// dependency order with a shared fact database.
func standalone(args []string) int {
	fs := flag.NewFlagSet("elslint", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit a JSON object with findings and malfunctions arrays")
	lockdot := fs.String("lockdot", "", "write the global lock-acquisition graph as Graphviz DOT to `file`")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: elslint [-json] [-lockdot file] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "elslint:", err)
		return 2
	}
	pkgs, err := analysis.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elslint:", err)
		return 2
	}
	roots := analyzers.All()
	schedule, err := analysis.Schedule(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elslint:", err)
		return 2
	}
	facts := analysis.NewFactSet(schedule)
	findings, mals, err := analysis.RunPackages(pkgs, roots, facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elslint:", err)
		return 2
	}

	if *lockdot != "" {
		//atomicwrite:allow CI artifact regenerated every run; a torn file just re-runs the job
		f, err := os.Create(*lockdot)
		if err != nil {
			fmt.Fprintln(os.Stderr, "elslint:", err)
			return 2
		}
		werr := lockorder.WriteDOT(f, facts.AllPackageFacts())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "elslint:", werr)
			return 2
		}
	}

	report := reportJSON{Findings: []findingJSON{}, Malfunctions: []malfunctionJSON{}}
	for _, f := range findings {
		report.Findings = append(report.Findings, findingJSON{
			Package:  f.Package,
			File:     relPath(wd, f.Pos.Filename),
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Analyzer: f.Analyzer,
			Message:  f.Message,
		})
	}
	for _, m := range mals {
		report.Malfunctions = append(report.Malfunctions, malfunctionJSON{
			Package: m.Package, Analyzer: m.Analyzer, Error: m.Err,
		})
	}
	sort.Slice(report.Findings, func(i, j int) bool {
		a, b := report.Findings[i], report.Findings[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
	sort.Slice(report.Malfunctions, func(i, j int) bool {
		a, b := report.Malfunctions[i], report.Malfunctions[j]
		if a.Package != b.Package {
			return a.Package < b.Package
		}
		return a.Analyzer < b.Analyzer
	})

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "elslint:", err)
			return 2
		}
	} else {
		for _, d := range report.Findings {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	for _, m := range report.Malfunctions {
		fmt.Fprintf(os.Stderr, "elslint: analyzer %s malfunctioned on %s: %s\n", m.Analyzer, m.Package, m.Error)
	}
	switch {
	case len(report.Malfunctions) > 0:
		return 2 // verdict unknown — worse than dirty
	case len(report.Findings) > 0:
		return 1
	}
	return 0
}

func relPath(wd, name string) string {
	if rel, err := filepath.Rel(wd, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

// vetConfig is the subset of cmd/go's vet.cfg the unitchecker needs.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// unitcheck analyzes one package as directed by a vet.cfg file, following
// the cmd/go vettool protocol: facts arrive via the dependencies' .vetx
// files named in PackageVetx, the facts this unit exports are written to
// VetxOutput, diagnostics go to stderr, and the exit status is 2 when
// anything was reported. Module-external VetxOnly units (the standard
// library) export no facts the suite consumes, so they are answered with
// an empty vetx without the cost of a type-check.
func unitcheck(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elslint:", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "elslint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	emptyVetx := func() int {
		if cfg.VetxOutput != "" {
			//atomicwrite:allow vetx protocol marker for cmd/go, rebuilt every vet run
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				fmt.Fprintln(os.Stderr, "elslint:", err)
				return 1
			}
		}
		return 0
	}
	if cfg.VetxOnly && !strings.HasPrefix(cfg.ImportPath, "repro") {
		return emptyVetx()
	}
	roots := analyzers.All()
	schedule, err := analysis.Schedule(roots)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elslint:", err)
		return 1
	}
	facts := analysis.NewFactSet(schedule)
	for _, vetx := range sortedValues(cfg.PackageVetx) {
		data, err := os.ReadFile(vetx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "elslint:", err)
			return 1
		}
		if err := facts.Decode(data); err != nil {
			fmt.Fprintf(os.Stderr, "elslint: decoding facts from %s: %v\n", vetx, err)
			return 1
		}
	}
	fset := token.NewFileSet()
	goFiles := make([]string, len(cfg.GoFiles))
	for i, f := range cfg.GoFiles {
		if !filepath.IsAbs(f) {
			f = filepath.Join(cfg.Dir, f)
		}
		goFiles[i] = f
	}
	pkg, err := analysis.CheckFiles(fset, cfg.ImportPath, goFiles, cfgImporter(&cfg).Importer(fset))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return emptyVetx()
		}
		fmt.Fprintln(os.Stderr, "elslint:", err)
		return 1
	}
	findings, mals, err := analysis.RunPackages([]*analysis.Package{pkg}, roots, facts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "elslint:", err)
		return 1
	}
	if cfg.VetxOutput != "" {
		encoded, err := facts.Encode()
		if err != nil {
			fmt.Fprintln(os.Stderr, "elslint:", err)
			return 1
		}
		//atomicwrite:allow vetx fact file for cmd/go, rebuilt every vet run
		if err := os.WriteFile(cfg.VetxOutput, encoded, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, "elslint:", err)
			return 1
		}
	}
	for _, m := range mals {
		fmt.Fprintf(os.Stderr, "elslint: analyzer %s malfunctioned on %s: %s\n", m.Analyzer, m.Package, m.Err)
		return 1
	}
	if cfg.VetxOnly {
		return 0 // facts produced; diagnostics are reported when the unit is vetted directly
	}
	exit := 0
	for _, f := range findings {
		fmt.Fprintf(os.Stderr, "%s:%d:%d: %s: %s\n", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		exit = 2
	}
	return exit
}

// sortedValues returns m's values in key order, for deterministic fact
// loading.
func sortedValues(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// cfgImporter resolves imports through the export files cmd/go listed in
// the vet.cfg (ImportMap aliases source paths; PackageFile locates the
// compiled export data).
func cfgImporter(cfg *vetConfig) *analysis.ExportIndex {
	exports := make(map[string]string, len(cfg.PackageFile))
	for path, file := range cfg.PackageFile {
		exports[path] = file
	}
	for src, canonical := range cfg.ImportMap {
		if f, ok := cfg.PackageFile[canonical]; ok {
			exports[src] = f
		}
	}
	return analysis.NewExportIndex(exports)
}
