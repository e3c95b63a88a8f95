package els_test

import (
	"context"
	"runtime"
	"testing"
	"time"

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
	cfg := chaos.MemoryConfig{
		Seed:            42,
		DataRoot:        t.TempDir(),
		HogWorkers:      6,
		NeighborWorkers: 2,
		OpsPerWorker:    12,
	}
	if testing.Short() {
		cfg.HogWorkers = 5
		cfg.OpsPerWorker = 8
	}
	if logF := chaosLog(t); logF != nil {
		cfg.LogW = logF
	}

	before := goroutineCount()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	rep, err := chaos.RunMemoryPressure(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if rep.HogOps == 0 {
		t.Fatal("the hog swarm issued no queries")
	}
	if rep.HogSucceeded == 0 {
		t.Error("no hog query completed — the budget starved the tenant entirely instead of partitioning")
	}
	if rep.NeighborOps == 0 {
		t.Fatal("the neighbor swarms issued no queries")
	}
	t.Logf("memory pressure: hog %d ops (%d ok, %d shed, %d spilled); neighbors %d ops, p99 %.1fms",
		rep.HogOps, rep.HogSucceeded, rep.HogShed, rep.HogSpilled,
		rep.NeighborOps, rep.NeighborP99Millis)

	// Let the OS reap closed-connection goroutines before the leak check.
	deadline := time.Now().Add(5 * time.Second)
	for goroutineCount() > before && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if after := goroutineCount(); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutine leak: %d before storm, %d after\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}
