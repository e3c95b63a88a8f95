package els_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	els "repro"
	"repro/internal/chaos"
)

// TestReplicationChaos is the replication soak: a primary ships WAL frames
// to a replica fleet while injected faults drop, delay, corrupt, and
// truncate frames on the wire, kill the primary and follower disks
// mid-ship, and silently corrupt a follower's replayed catalog. The
// harness audits the replication contract every round: the digest audit
// catches every injected divergence (quarantining the follower with
// ErrDiverged), acknowledged mutations reach every settled live follower,
// and quiesced reads past Limits.MaxReplicaLag are rejected with
// ErrStaleReplica. Run with -race in CI; CHAOS_LOG captures the event log
// and CHAOS_DIGEST the per-follower digests.
func TestReplicationChaos(t *testing.T) {
	cfg := chaos.Config{
		Seed:     42,
		Dir:      t.TempDir(),
		Replicas: 3,
		Rounds:   18, // two full passes over the 9-kind fault rotation
		Ops:      20,
	}
	if testing.Short() {
		cfg.Rounds = 9 // one full pass
		cfg.Ops = 10
	}
	rep := runStorm(t, chaos.RunReplication, cfg)
	c := rep.Counts
	if c["rounds"] != cfg.Rounds {
		t.Errorf("completed %d rounds, want %d", c["rounds"], cfg.Rounds)
	}
	if c["acked"] == 0 {
		t.Error("no mutation was acknowledged")
	}
	if c["frames_shipped"] == 0 {
		t.Error("no frame was shipped")
	}
	if c["divergences_injected"] == 0 {
		t.Error("no divergence was injected — the soak never exercised the digest audit under fire")
	}
	if c["divergences_detected"] < c["divergences_injected"] {
		t.Errorf("only %d of %d injected divergences were detected", c["divergences_detected"], c["divergences_injected"])
	}
	if c["primary_crashes"] == 0 {
		t.Error("no primary crash landed")
	}
	if c["follower_crashes"] == 0 {
		t.Error("no follower crash landed")
	}
	if c["stale_audits"] != cfg.Rounds {
		t.Errorf("%d staleness audits ran, want one per round (%d)", c["stale_audits"], cfg.Rounds)
	}
	if c["served_reads"] == 0 {
		t.Error("no replica read succeeded during the storms")
	}
	primary := rep.Digests["primary"]
	if primary == "" {
		t.Error("no settled-catalog digest produced")
	}
	if len(rep.Digests) != cfg.Replicas+1 {
		t.Errorf("%d digests, want the primary's and %d followers'", len(rep.Digests), cfg.Replicas)
	}
	for id, d := range rep.Digests {
		if d != primary {
			t.Errorf("follower %s settled at digest %.12s, primary %.12s", id, d, primary)
		}
	}
	t.Logf("replication soak: final v%d digest %.12s, counts %v", rep.FinalVersion, primary, c)
}

// TestReplicationDeterministic pins that the soak is replayable: two runs
// from the same seed settle the primary and every follower at identical
// catalog digests and versions — the property the CI chaos-smoke job
// archives.
func TestReplicationDeterministic(t *testing.T) {
	run := func() *chaos.Report {
		return runStorm(t, chaos.RunReplication, chaos.Config{Seed: 7, Dir: t.TempDir(), Replicas: 2, Rounds: 9, Ops: 10})
	}
	a, b := run(), run()
	if a.Digests["primary"] == "" || a.Digests["primary"] != b.Digests["primary"] {
		t.Errorf("same-seed digests differ: %s vs %s", a.Digests["primary"], b.Digests["primary"])
	}
	if a.FinalVersion != b.FinalVersion {
		t.Errorf("same-seed final versions differ: %d vs %d", a.FinalVersion, b.FinalVersion)
	}
	if a.Counts["acked"] != b.Counts["acked"] {
		t.Errorf("same-seed acked counts differ: %d vs %d", a.Counts["acked"], b.Counts["acked"])
	}
}

// A soak whose boot fails part-way closes everything it opened: the
// primary, and the replica already attached with its shipping link. The
// second replica's directory is a regular file, so opening it fails after
// the first is attached.
func TestReplicationBootFailureReleasesEverything(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "r1"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := goroutineCount()
	ctx := context.Background()
	if _, err := chaos.RunReplication(ctx, chaos.Config{Seed: 1, Dir: dir, Replicas: 2, Rounds: 1}); err == nil {
		t.Fatal("soak booted with a replica directory that is a regular file")
	}
	checkNoLeak(t, before, 0)
	sys, err := els.Open(filepath.Join(dir, "primary"))
	if err != nil {
		t.Fatalf("reopening the primary after the failed boot: %v", err)
	}
	if err := sys.Close(ctx); err != nil {
		t.Errorf("closing the reopened primary: %v", err)
	}
}
