package els_test

import (
	"testing"

	"repro/internal/chaos"
)

// TestChaosMemoryPressure is the memory-governance soak: three durable
// tenants share one wire server and one process-wide memory pool; the
// hog tenant hammers an oversized join under a per-query byte budget far
// below its build side, with a swarm big enough to overflow its pool
// share, while two neighbor tenants run a steady light workload
// throughout. The audits: the hog both sheds (typed, retryable, with a
// Retry-After hint) and partitions its joins to fit the budget; every
// neighbor query succeeds with zero pool sheds and zero partitioned joins —
// degradation stays inside the hog's bulkhead; and the pool returns to
// zero reservation. Run with -race in CI; CHAOS_LOG captures the JSONL
// event log artifact.
func TestChaosMemoryPressure(t *testing.T) {
	cfg := chaos.Config{Seed: 42, Dir: t.TempDir(), Workers: 6, Ops: 12}
	if testing.Short() {
		cfg.Workers = 5
		cfg.Ops = 8
	}
	rep := runWireStorm(t, chaos.RunMemoryPressure, cfg)
	c := rep.Counts
	if c["hog_ops"] == 0 {
		t.Fatal("the hog swarm issued no queries")
	}
	if c["hog_succeeded"] == 0 {
		t.Error("no hog query completed — the budget starved the tenant entirely instead of partitioning")
	}
	if c["neighbor_ops"] == 0 {
		t.Fatal("the neighbor swarms issued no queries")
	}
	t.Logf("memory pressure: counts %v", c)
}
