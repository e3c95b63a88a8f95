package analyzers

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analyzers/locks"
)

// TestRegistry pins the driver-facing sanity properties of the shipped
// suite: seven analyzers, unique non-empty names, non-empty docs.
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
}

// moduleLockLevels is every mutex declared in the module's non-test code,
// with its //lockorder:level (DESIGN.md §12).
var moduleLockLevels = []string{
	"repro.Replica.mu 26",
	"repro.System.mu 20",
	"repro.System.retryMu 22",
	"repro.System.shipMu 24",
	"repro/bench.failLog.mu 70",
	"repro/internal/admission.Breaker.mu 34",
	"repro/internal/admission.Controller.mu 30",
	"repro/internal/admission.Slot.mu 32",
	"repro/internal/analysis.FactSet.mu 90",
	"repro/internal/chaos.ledger.logMu 70",
	"repro/internal/chaos.ledger.mu 5",
	"repro/internal/durable.Store.mu 40",
	"repro/internal/faultinject.mu 80",
	"repro/internal/plancache.Cache.mu 50",
	"repro/internal/replica.Follower.mu 36",
	"repro/internal/replica.Shipper.mu 44",
	"repro/internal/server.Server.logMu 70",
	"repro/internal/server.Server.mu 10",
	"repro/internal/server.Server.reqMu 12",
	"repro/internal/server.hist.mu 16",
	"repro/internal/server.memPool.mu 16",
	"repro/internal/server.tenant.mu 14",
	"repro/internal/snapshot.Store.mu 42",
}

// moduleLockEdges is the module's lock-acquisition graph, as "from -> to"
// with " (allowed)" appended to an edge every witness of which carries
// //lockorder:allow.
var moduleLockEdges = []string{
	"repro.Replica.mu -> repro/internal/replica.Follower.mu",
	"repro.System.mu -> repro.System.retryMu",
	"repro.System.shipMu -> repro/internal/durable.Store.mu",
	"repro/internal/durable.Store.mu -> repro/internal/faultinject.mu",
	"repro/internal/replica.Follower.mu -> repro/internal/durable.Store.mu",
	"repro/internal/replica.Follower.mu -> repro/internal/faultinject.mu",
	"repro/internal/replica.Follower.mu -> repro/internal/snapshot.Store.mu",
}

// TestModuleIsLintClean runs the whole suite over the module, as
// `go run ./cmd/elslint ./...` does, so `go test ./...` fails on any
// finding or analyzer malfunction in library code. It also pins the lock
// graph elslint -lockdot draws, without witnesses, so a new ordering or a
// changed level shows up in review.
func TestModuleIsLintClean(t *testing.T) {
	pkgs, err := analysis.Load(".", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 30 {
		t.Fatalf("loaded %d packages of the module, want at least 30", len(pkgs))
	}
	findings, mals, facts := analysis.RunPackages(pkgs, All())
	for _, f := range findings {
		t.Errorf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
	}
	for _, m := range mals {
		t.Errorf("analyzer %s malfunctioned on %s: %s", m.Analyzer, m.Package, m.Err)
	}

	levelOf, edges := locks.Graph(facts.AllPackageFacts())
	var levels, got []string
	for name, level := range levelOf {
		levels = append(levels, fmt.Sprintf("%s %d", name, level))
	}
	for _, e := range edges {
		s := e.From + " -> " + e.To
		if e.Allowed {
			s += " (allowed)"
		}
		got = append(got, s)
	}
	sort.Strings(levels)
	if !reflect.DeepEqual(levels, moduleLockLevels) {
		t.Errorf("declared lock levels:\n%s\nwant:\n%s", strings.Join(levels, "\n"), strings.Join(moduleLockLevels, "\n"))
	}
	if !reflect.DeepEqual(got, moduleLockEdges) {
		t.Errorf("lock-acquisition edges:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(moduleLockEdges, "\n"))
	}
}
