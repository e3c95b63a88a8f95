package els_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"time"

	els "repro"
	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/replica"
)

// newReplicationPair opens a durable primary with one declared table and
// an attached replica, both cleaned up with the test.
func newReplicationPair(t *testing.T) (*els.System, *els.Replica) {
	t.Helper()
	sys, err := els.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSystem(t, sys) })
	if err := sys.DeclareStats("orders", 1000, map[string]float64{"id": 100}); err != nil {
		t.Fatal(err)
	}
	rep, err := els.OpenReplica(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachReplica(rep); err != nil {
		t.Fatal(err)
	}
	waitForReplicas(t, sys)
	return sys, rep
}

func closeSystem(t *testing.T, sys *els.System) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sys.Close(ctx)
}

func waitForReplicas(t *testing.T, sys *els.System) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.WaitForReplicas(ctx); err != nil {
		t.Fatal(err)
	}
}

const replicaProbe = "SELECT COUNT(*) FROM orders WHERE id < 50"

// TestReplicaServesStampedReads pins the read path: a caught-up replica
// serves the same estimate as the primary, bit-identical at the same
// catalog version, stamped as a replica read, and Explain reports the lag.
func TestReplicaServesStampedReads(t *testing.T) {
	sys, rep := newReplicationPair(t)

	want, err := sys.Estimate(replicaProbe, els.AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.Estimate(replicaProbe, els.AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Replica {
		t.Error("replica estimate not stamped Replica")
	}
	if got.ReplicaLag != 0 {
		t.Errorf("caught-up replica reports lag %d", got.ReplicaLag)
	}
	if want.Replica {
		t.Error("primary estimate stamped as a replica read")
	}
	if got.CatalogVersion != want.CatalogVersion {
		t.Errorf("replica pinned version %d, primary %d", got.CatalogVersion, want.CatalogVersion)
	}
	if math.Float64bits(got.FinalSize) != math.Float64bits(want.FinalSize) {
		t.Errorf("replica estimate %v not bit-identical to primary %v", got.FinalSize, want.FinalSize)
	}

	plan, err := rep.Explain(replicaProbe, els.AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan, "replica lag: 0") {
		t.Errorf("replica explain missing the lag line:\n%s", plan)
	}
	if pplan, _ := sys.Explain(replicaProbe, els.AlgorithmELS); strings.Contains(pplan, "replica lag") {
		t.Error("primary explain carries a replica lag line")
	}
}

// TestReplicaStaleRejection wedges the replica's link (announcements still
// flow, data frames drop), pushes the primary past MaxReplicaLag, and pins
// the staleness contract: the read is rejected with a typed
// ErrStaleReplica, and a retry policy rides out the staleness once the
// link heals.
func TestReplicaStaleRejection(t *testing.T) {
	sys, rep := newReplicationPair(t)
	rep.SetLimits(els.Limits{MaxReplicaLag: 2})

	link := replica.PointShip + ":" + rep.ID()
	defer faultinject.Reset()
	faultinject.Enable(link, faultinject.Fault{
		Payload: faultinject.LinkFault{Drop: true, CorruptBit: -1, Truncate: -1},
	})
	for i := 0; i < 4; i++ {
		if err := sys.DeclareStats("orders", float64(2000+i), map[string]float64{"id": 100}); err != nil {
			t.Fatal(err)
		}
	}
	if lag := rep.Lag(); lag != 4 {
		t.Fatalf("announcements must survive dropped data frames: lag = %d, want 4", lag)
	}

	_, err := rep.Estimate(replicaProbe, els.AlgorithmELS)
	if !errors.Is(err, els.ErrStaleReplica) {
		t.Fatalf("read at lag 4 under bound 2: got %v, want ErrStaleReplica", err)
	}
	var sre *els.StaleReplicaError
	if !errors.As(err, &sre) || sre.Lag != 4 || sre.MaxLag != 2 {
		t.Fatalf("rejection carries no usable StaleReplicaError: %v", err)
	}

	// Heal the link in the background; a retrying read must ride the
	// staleness out and then pin the caught-up version. Dropped frames
	// are only re-shipped on a nudge (or the next frame's gap), so the
	// healer runs the catch-up barrier after lifting the fault.
	go func() {
		time.Sleep(5 * time.Millisecond)
		faultinject.Disable(link)
		wctx, wcancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer wcancel()
		_ = sys.WaitForReplicas(wctx)
	}()
	rep.SetRetryPolicy(els.RetryPolicy{MaxAttempts: 500, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	est, err := rep.Estimate(replicaProbe, els.AlgorithmELS)
	if err != nil {
		t.Fatalf("retrying read never caught up: %v", err)
	}
	if est.CatalogVersion != sys.CatalogVersion() {
		t.Errorf("retried read pinned version %d, primary at %d", est.CatalogVersion, sys.CatalogVersion())
	}
	if rep.Stats().Robustness.Retries == 0 {
		t.Error("the stale read succeeded without retrying — the fault never bit")
	}
	if st := rep.Stats().Replica; st.StaleReads == 0 {
		t.Error("no stale rejection was counted")
	}
}

// TestReplicaQuarantineAndHeal injects a silent corruption into the
// replica's replay and pins the divergence contract: the digest audit
// quarantines the replica behind ErrDiverged, reads and promotion are
// refused, and re-attaching heals it through a certifying full resync.
func TestReplicaQuarantineAndHeal(t *testing.T) {
	sys, rep := newReplicationPair(t)

	defer faultinject.Reset()
	faultinject.Enable(replica.PointApply+":"+rep.ID(), faultinject.Fault{
		Times: 1,
		Payload: func(cat *catalog.Catalog) {
			if ts := cat.Table("orders"); ts != nil {
				ts.Card++ // silent corruption: only the digest audit can see it
			}
		},
	})
	if err := sys.DeclareStats("orders", 5000, map[string]float64{"id": 100}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for rep.Quarantined() == nil {
		if time.Now().After(deadline) {
			t.Fatal("injected corruption never tripped the digest audit")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := rep.Estimate(replicaProbe, els.AlgorithmELS)
	if !errors.Is(err, els.ErrDiverged) {
		t.Fatalf("read on a quarantined replica: got %v, want ErrDiverged", err)
	}
	var dv *els.DivergenceError
	if !errors.As(err, &dv) || dv.ReplicaID != rep.ID() || dv.Want == dv.Got {
		t.Fatalf("rejection carries no usable DivergenceError: %v", err)
	}
	if _, err := rep.Promote(); !errors.Is(err, els.ErrDiverged) {
		t.Errorf("promoting a quarantined replica: got %v, want a refusal wrapping ErrDiverged", err)
	}
	quarantined := false
	for _, f := range sys.Stats().Replication.Followers {
		if f.ID == rep.ID() && f.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Error("primary's replication stats do not report the quarantine")
	}

	// Re-attaching is the operator acknowledging the divergence: the full
	// resync re-certifies the replica.
	if err := sys.AttachReplica(rep); err != nil {
		t.Fatal(err)
	}
	for rep.Quarantined() != nil || rep.CatalogVersion() < sys.CatalogVersion() {
		if time.Now().After(deadline) {
			t.Fatal("heal never completed")
		}
		time.Sleep(time.Millisecond)
	}
	est, err := rep.Estimate(replicaProbe, els.AlgorithmELS)
	if err != nil {
		t.Fatalf("healed replica rejected a read: %v", err)
	}
	if est.CatalogVersion != sys.CatalogVersion() {
		t.Errorf("healed replica pinned version %d, primary at %d", est.CatalogVersion, sys.CatalogVersion())
	}
	pv, pd, _ := sys.CatalogDigest()
	rv, rd, _ := rep.CatalogDigest()
	if pv != rv || pd != rd {
		t.Errorf("healed replica digest (%d, %.12s) != primary (%d, %.12s)", rv, rd, pv, pd)
	}
}

// TestReplicaPromote pins promotion semantics: the promoted replica
// becomes a writable primary serving unstamped reads from its own durable
// directory, and the old replica handle is dead.
func TestReplicaPromote(t *testing.T) {
	sys, rep := newReplicationPair(t)

	promoted, err := rep.Promote()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeSystem(t, promoted) })
	if promoted.CatalogVersion() != sys.CatalogVersion() {
		t.Errorf("promoted at version %d, primary at %d", promoted.CatalogVersion(), sys.CatalogVersion())
	}

	// The promoted system writes and serves unstamped reads.
	if err := promoted.DeclareStats("orders", 9000, map[string]float64{"id": 100}); err != nil {
		t.Fatalf("promoted system rejected a write: %v", err)
	}
	est, err := promoted.Estimate(replicaProbe, els.AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if est.Replica {
		t.Error("promoted system still stamps reads as replica reads")
	}

	// The replica handle is dead, and re-attachment is refused.
	if _, err := rep.Estimate(replicaProbe, els.AlgorithmELS); !errors.Is(err, els.ErrClosed) {
		t.Errorf("read through the promoted replica handle: got %v, want ErrClosed", err)
	}
	if err := sys.AttachReplica(rep); !errors.Is(err, els.ErrClosed) {
		t.Errorf("re-attaching a promoted replica: got %v, want ErrClosed", err)
	}

	// Failover completes: the promoted system is itself a shipping primary,
	// so surviving replicas can be re-pointed at it.
	surDir := t.TempDir()
	survivor, err := els.OpenReplica(surDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := promoted.AttachReplica(survivor); err != nil {
		t.Fatalf("promoted primary refused a replica: %v", err)
	}
	waitForReplicas(t, promoted)
	pv, pd, err := promoted.CatalogDigest()
	if err != nil {
		t.Fatal(err)
	}
	sv, sd, err := survivor.CatalogDigest()
	if err != nil {
		t.Fatal(err)
	}
	if sv != pv || sd != pd {
		t.Errorf("survivor settled at v%d %.12s, promoted primary at v%d %.12s", sv, sd, pv, pd)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := survivor.Close(ctx); err != nil {
		t.Errorf("closing survivor: %v", err)
	}
}

// TestReplicaRecovery pins that a follower recovers from its own durable
// directory like a primary: close it, reopen it, and it resumes tailing
// from the version it had persisted.
func TestReplicaRecovery(t *testing.T) {
	sys, _ := newReplicationPair(t)

	repDir := t.TempDir()
	rep2, err := els.OpenReplica(repDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachReplica(rep2); err != nil {
		t.Fatal(err)
	}
	// Let the fresh follower finish its full-frame resync before
	// mutating: contiguous deltas replay through the follower's own WAL
	// (a late resync would cover them with one checkpoint instead).
	waitForReplicas(t, sys)
	for i := 0; i < 5; i++ {
		if err := sys.DeclareStats("orders", float64(3000+i), map[string]float64{"id": 100}); err != nil {
			t.Fatal(err)
		}
	}
	// Poll the version directly rather than WaitForReplicas: the barrier
	// Nudges stragglers into a full resync, and a full frame checkpoints
	// and truncates the very WAL records this test wants to replay.
	deadline := time.Now().Add(5 * time.Second)
	for rep2.CatalogVersion() < sys.CatalogVersion() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at version %d, primary at %d", rep2.CatalogVersion(), sys.CatalogVersion())
		}
		time.Sleep(2 * time.Millisecond)
	}
	wantVer := rep2.CatalogVersion()
	if stats := rep2.Stats().Durability; stats.WALBytes == 0 {
		t.Error("follower replay wrote nothing to its own WAL")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	rep2.Close(ctx)
	cancel()

	reopened, err := els.OpenReplica(repDir)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.CatalogVersion(); got != wantVer {
		t.Errorf("reopened follower at version %d, had persisted %d", got, wantVer)
	}
	if stats := reopened.Stats().Durability; stats.ReplayedRecords == 0 {
		t.Error("reopening replayed no WAL records — the follower's own durability is not being exercised")
	}
	if err := sys.AttachReplica(reopened); err != nil {
		t.Fatal(err)
	}
	if err := sys.DeclareStats("orders", 4000, map[string]float64{"id": 100}); err != nil {
		t.Fatal(err)
	}
	waitForReplicas(t, sys)
	pv, pd, _ := sys.CatalogDigest()
	rv, rd, _ := reopened.CatalogDigest()
	if pv != rv || pd != rd {
		t.Errorf("recovered replica digest (%d, %.12s) != primary (%d, %.12s)", rv, rd, pv, pd)
	}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 10*time.Second)
	reopened.Close(ctx2)
	cancel2()
}

// TestAttachRequiresDurablePrimary pins that only a durable primary
// (els.Open) can ship WAL frames.
func TestAttachRequiresDurablePrimary(t *testing.T) {
	sys := els.New()
	t.Cleanup(func() { closeSystem(t, sys) })
	rep, err := els.OpenReplica(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	defer rep.Close(ctx)
	if err := sys.AttachReplica(rep); !errors.Is(err, els.ErrDurability) {
		t.Errorf("attaching to an in-memory system: got %v, want ErrDurability", err)
	}
}
