// Command elslint runs the repro invariant-checker suite
// (internal/analyzers) over the module with the facts-capable driver:
// packages are type-checked once, analyzed in dependency order, and the
// facts each analyzer exports (lock-acquisition summaries) flow to its
// dependents.
//
//	go run ./cmd/elslint ./...
//	go run ./cmd/elslint -json ./... > lint.json
//	go run ./cmd/elslint -lockdot lockorder.dot ./...
//
// Exit status: 0 clean, 1 when findings were reported, 2 when an analyzer
// malfunctioned (its verdict is unknown — distinct from "the tree is
// dirty"). The -json artifact distinguishes the two as separate
// "findings" and "malfunctions" arrays, deterministically sorted.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analyzers"
	"repro/internal/analyzers/lockorder"
)

func main() {
	os.Exit(standalone(os.Args[1:]))
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
