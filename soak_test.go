package els_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	els "repro"
	"repro/internal/chaos"
)

// goroutineCount waits for the runtime's goroutine count to settle and
// returns it, so storms that finished a moment ago don't read as leaks.
func goroutineCount() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// checkNoLeak fails t if more goroutines run than before once the count
// has settled and, for a wire storm, grace has passed for the OS to reap
// closed connections' goroutines.
func checkNoLeak(t *testing.T, before int, grace time.Duration) {
	t.Helper()
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) && goroutineCount() > before {
		time.Sleep(20 * time.Millisecond)
	}
	if after := goroutineCount(); after > before {
		buf := make([]byte, 1<<20)
		t.Errorf("goroutine leak: %d before the storm, %d after\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// appendEnv opens the file named by environment variable name for
// appending, so every storm of a run contributes to one artifact, or
// returns nil when the variable is unset.
func appendEnv(t *testing.T, name string) io.Writer {
	path := os.Getenv(name)
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

type storm func(context.Context, chaos.Config) (*chaos.Report, error)

// runStorm runs an in-process or durable storm. It has no overall
// deadline, and a goroutine that outlives the storm's Close is a leak at
// once.
func runStorm(t *testing.T, run storm, cfg chaos.Config) *chaos.Report {
	t.Helper()
	return soak(t, context.Background(), run, cfg, 0)
}

// runWireStorm runs a storm whose clients talk to a server over sockets,
// under a two-minute bound, and gives the OS five seconds to reap the
// closed connections' goroutines before the leak check.
func runWireStorm(t *testing.T, run storm, cfg chaos.Config) *chaos.Report {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return soak(t, ctx, run, cfg, 5*time.Second)
}

// soak is the scaffolding every soak test shares: the CHAOS_LOG event log
// (the artifact CI uploads), every violation as a test error, the storm's
// digests appended to CHAOS_DIGEST (so a durability regression is
// diffable across runs), and a goroutine-leak check.
func soak(t *testing.T, ctx context.Context, run storm, cfg chaos.Config, grace time.Duration) *chaos.Report {
	t.Helper()
	cfg.LogW = appendEnv(t, "CHAOS_LOG")
	before := goroutineCount()
	rep, err := run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if w := appendEnv(t, "CHAOS_DIGEST"); w != nil {
		var ids []string
		for id := range rep.Digests {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		var sb strings.Builder
		for _, id := range ids {
			fmt.Fprintf(&sb, "%s seed=%d final_version=%d %s=%s\n", t.Name(), cfg.Seed, rep.FinalVersion, id, rep.Digests[id])
		}
		if _, err := io.WriteString(w, sb.String()); err != nil {
			t.Errorf("writing CHAOS_DIGEST: %v", err)
		}
	}
	checkNoLeak(t, before, grace)
	return rep
}

// TestChaosSoak storms the serving layer — concurrent workers, catalog
// mutation, and fault injection (errors, panics, latency) — and asserts
// the audited contracts: taxonomy-complete errors, version-consistent
// estimates, a clean drain, and no goroutine leaks. Run with -race in CI.
func TestChaosSoak(t *testing.T) {
	cfg := chaos.Config{
		Seed:    42,
		Workers: 8,
		Ops:     60,
		Retry:   els.RetryPolicy{MaxAttempts: 3, BaseDelay: 200 * time.Microsecond, Seed: 42},
	}
	if testing.Short() {
		cfg.Workers = 4
		cfg.Ops = 25
	}
	rep := runStorm(t, chaos.Run, cfg)
	if rep.Ops != cfg.Workers*cfg.Ops {
		t.Errorf("ops %d, want %d", rep.Ops, cfg.Workers*cfg.Ops)
	}
	if rep.Succeeded == 0 {
		t.Error("no operation succeeded — the storm drowned the system")
	}
	if rep.Counts["observations"] == 0 {
		t.Error("no version-consistency observations collected")
	}
	if rep.Counts["versions"] < 2 {
		t.Errorf("mutator published only %d versions", rep.Counts["versions"])
	}
	t.Logf("storm: %d ops, %d ok, errors %v, counts %v", rep.Ops, rep.Succeeded, rep.ErrorsByClass, rep.Counts)
}

// TestChaosCacheSoak storms the plan cache: workers re-issue a Zipf-skewed
// statement pool while the mutator publishes catalog versions mid-flight.
// The torn-read audit proves no query was ever served a plan or estimate
// from a version other than its pinned Estimate.CatalogVersion, and the
// quiesced warm-path audit proves repeats actually hit the cache with
// bit-identical estimates.
func TestChaosCacheSoak(t *testing.T) {
	cfg := chaos.Config{Seed: 19, Workers: 8, Ops: 80}
	if testing.Short() {
		cfg.Workers = 4
		cfg.Ops = 30
	}
	rep := runStorm(t, chaos.RunCacheSoak, cfg)
	if rep.Succeeded == 0 {
		t.Error("no operation succeeded")
	}
	if rep.Counts["observations"] == 0 {
		t.Error("no version-consistency observations collected")
	}
	if rep.Counts["versions"] < 2 {
		t.Errorf("mutator published only %d versions", rep.Counts["versions"])
	}
	if rep.Stats.Cache.Hits == 0 {
		t.Error("storm produced no cache hits despite a repeated workload")
	}
	if rep.Stats.Cache.Invalidations == 0 {
		t.Error("version bumps retired no cache entries")
	}
	t.Logf("cache storm: %d ops, %d ok, counts %v, cache %+v", rep.Ops, rep.Succeeded, rep.Counts, rep.Stats.Cache)
}

// TestChaosSoakWithBreaker repeats the storm with the circuit breaker
// armed: injected internal-error bursts trip it, and shed queries must
// still classify as overloaded — never as unclassified leaks.
func TestChaosSoakWithBreaker(t *testing.T) {
	cfg := chaos.Config{
		Seed:    7,
		Workers: 6,
		Ops:     40,
		Breaker: els.BreakerPolicy{Threshold: 2, Cooldown: 2 * time.Millisecond},
	}
	if testing.Short() {
		cfg.Workers = 3
		cfg.Ops = 20
	}
	rep := runStorm(t, chaos.Run, cfg)
	if rep.Succeeded == 0 {
		t.Error("no operation succeeded")
	}
	t.Logf("storm: %d ops, %d ok, errors %v, breaker opens %d",
		rep.Ops, rep.Succeeded, rep.ErrorsByClass, rep.Stats.Robustness.BreakerOpens)
}
