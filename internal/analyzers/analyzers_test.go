package analyzers

import (
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestRegistry pins the driver-facing sanity properties of the shipped
// suite: seven analyzers, unique non-empty names, non-empty docs, and a
// schedulable (acyclic, nil-free) Requires graph.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 7 {
		t.Fatalf("registry has %d analyzers, want 7", len(all))
	}
	names := make(map[string]bool)
	for _, a := range all {
		if a == nil {
			t.Fatal("nil analyzer in registry")
		}
		if a.Name == "" {
			t.Error("analyzer with empty Name")
		}
		if strings.TrimSpace(a.Doc) == "" {
			t.Errorf("%s: empty Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("%s: nil Run", a.Name)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}

	schedule, err := analysis.Schedule(all)
	if err != nil {
		t.Fatalf("Schedule: %v", err)
	}
	// The schedule is the Requires closure: at least the registry itself,
	// with every analyzer after its prerequisites.
	if len(schedule) < len(all) {
		t.Fatalf("schedule has %d analyzers, want >= %d", len(schedule), len(all))
	}
	index := make(map[*analysis.Analyzer]int, len(schedule))
	for i, a := range schedule {
		index[a] = i
	}
	for _, a := range schedule {
		for _, req := range a.Requires {
			ri, ok := index[req]
			if !ok {
				t.Errorf("%s requires %s, which is not in the schedule", a.Name, req.Name)
				continue
			}
			if ri >= index[a] {
				t.Errorf("%s scheduled before its requirement %s", a.Name, req.Name)
			}
		}
	}
}

// TestModuleIsLintClean runs the whole suite over the module, as
// `go run ./cmd/elslint ./...` does, so `go test ./...` fails on any
// finding or analyzer malfunction in library code.
func TestModuleIsLintClean(t *testing.T) {
	pkgs, err := analysis.Load(".", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("loaded %d packages of the module, want at least 30", len(pkgs))
	}
	roots := All()
	schedule, err := analysis.Schedule(roots)
	if err != nil {
		t.Fatal(err)
	}
	findings, mals, err := analysis.RunPackages(pkgs, roots, analysis.NewFactSet(schedule))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
	}
	for _, m := range mals {
		t.Errorf("analyzer %s malfunctioned on %s: %s", m.Analyzer, m.Package, m.Err)
	}
}
