package els_test

import (
	"testing"

	"repro/internal/chaos"
)

// TestCrashRecoverySoak is the durability soak: a mutator fleet hammers a
// durable system while simulated process kills land at every durable-layer
// probe point (mid-WAL-record, pre-fsync, mid-checkpoint-write,
// pre-rename, post-rename-pre-truncate); each kill is followed by a
// recovery that the harness audits against the acknowledge contract —
// recovery yields exactly the last acknowledged version (or the one
// allowed in-flight record), acknowledged mutations never vanish, and
// recovered estimates are bit-identical at the same version. Run with
// -race in CI; CHAOS_LOG captures the event log artifact.
func TestCrashRecoverySoak(t *testing.T) {
	cfg := chaos.Config{Seed: 42, Dir: t.TempDir(), Rounds: 15, Ops: 25}
	if testing.Short() {
		cfg.Rounds = 6
		cfg.Ops = 12
	}
	rep := runStorm(t, chaos.RunCrash, cfg)
	c := rep.Counts
	if c["rounds"] != cfg.Rounds {
		t.Errorf("completed %d rounds, want %d", c["rounds"], cfg.Rounds)
	}
	if c["crashes"] == 0 {
		t.Error("no injected crash landed — the soak never exercised recovery under fire")
	}
	if c["acked"] == 0 {
		t.Error("no mutation was acknowledged")
	}
	if c["bit_identical_checks"] == 0 {
		t.Error("no bit-identical estimate comparison ran")
	}
	if rep.Digests["primary"] == "" {
		t.Error("no recovered-catalog digest produced")
	}
	t.Logf("crash soak: final v%d digest %.12s, counts %v", rep.FinalVersion, rep.Digests["primary"], c)
}

// TestCrashRecoveryDeterministic pins that the deterministic soak mode is
// replayable: two runs from the same seed recover catalogs with identical
// digests at the same final version — the property the CI chaos-smoke job
// archives.
func TestCrashRecoveryDeterministic(t *testing.T) {
	run := func() *chaos.Report {
		return runStorm(t, chaos.RunCrash, chaos.Config{Seed: 7, Dir: t.TempDir(), Rounds: 8, Ops: 10, Deterministic: true})
	}
	a, b := run(), run()
	if a.Digests["primary"] == "" || a.Digests["primary"] != b.Digests["primary"] {
		t.Errorf("same-seed digests differ: %s vs %s", a.Digests["primary"], b.Digests["primary"])
	}
	if a.FinalVersion != b.FinalVersion {
		t.Errorf("same-seed final versions differ: %d vs %d", a.FinalVersion, b.FinalVersion)
	}
}
