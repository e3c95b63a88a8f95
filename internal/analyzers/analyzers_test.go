package analyzers

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// TestRegistry pins the driver-facing sanity properties of the shipped
// suite: eight analyzers, unique non-empty names, non-empty docs, and a
// schedulable (acyclic, nil-free) Requires graph.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 8 {
		t.Fatalf("registry has %d analyzers, want 8", len(all))
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

// TestFactTypesRoundTrip checks every declared fact type survives the gob
// wire format the vettool protocol ships facts in.
func TestFactTypesRoundTrip(t *testing.T) {
	for _, a := range All() {
		for _, f := range a.FactTypes {
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(f); err != nil {
				t.Errorf("%s: fact %T does not gob-encode: %v", a.Name, f, err)
			}
		}
	}
}
