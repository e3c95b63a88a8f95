package els_test

import (
	"testing"

	"repro/internal/chaos"
)

// TestServerChaos is the networked serving soak: a multi-tenant wire
// server hosts durable tenant bulkheads while per-tenant client swarms
// issue estimates, executed queries, mutations, deadline-bounded calls,
// and overload floods; saboteur clients tear frames, corrupt checksums,
// and vanish mid-request; one tenant is poisoned into quarantine by
// injected panics; and the server drains gracefully under live traffic
// before restarting over the same data root. The audits: estimates never
// cross a tenant boundary (every probe lands in its tenant's published
// cardinality band at its pinned version), every client-observed failure
// matches a public taxonomy sentinel, the drain leaks no connection or
// admission slot, and every tenant — including the quarantined one —
// recovers its exact pre-drain catalog identity (version:digest). Run
// with -race in CI; CHAOS_LOG captures the JSONL event log artifact.
func TestServerChaos(t *testing.T) {
	cfg := chaos.Config{Seed: 42, Dir: t.TempDir(), Workers: 4, Ops: 30}
	if testing.Short() {
		cfg.Workers = 3
		cfg.Ops = 12
	}
	rep := runWireStorm(t, chaos.RunServer, cfg)
	if rep.Ops == 0 {
		t.Fatal("the fleet issued no operations")
	}
	if rep.Succeeded == 0 {
		t.Error("no operation succeeded — the storm drowned the server entirely")
	}
	if rep.Counts["observations"] == 0 {
		t.Error("no isolation observation collected — the cross-tenant audit never ran")
	}
	if rep.Counts["quarantined"] != 1 {
		t.Error("no tenant was poisoned")
	}
	if len(rep.Digests) != 3 {
		t.Errorf("recovered %d tenant digests, want 3", len(rep.Digests))
	}
	if rep.ErrorsByClass["overloaded"] == 0 {
		t.Error("no overload shed observed — the swarm never contended the admission queue")
	}
	t.Logf("server chaos: %d ops (%d ok), errors %v, counts %v", rep.Ops, rep.Succeeded, rep.ErrorsByClass, rep.Counts)
}
