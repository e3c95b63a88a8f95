package els

import (
	"context"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/durable"
	"repro/internal/replica"
	"repro/internal/snapshot"
)

// Replica is a read-only follower of a durable primary (els.Open): the
// primary ships every acknowledged catalog mutation to it as a
// checksummed, digest-certified WAL frame, and the replica replays frames
// into its own durable store and copy-on-write snapshot catalog, serving
// Estimate/Explain from whatever version it has reached.
//
// The staleness contract: every result carries the pinned catalog version
// and a ReplicaLag (how many versions the pinned snapshot trailed the
// primary), and when Limits.MaxReplicaLag is set, a read on a replica
// lagging further is rejected with ErrStaleReplica before estimation
// starts — callers get a typed signal to retry (replicas catch up) or
// fail over to the primary. With a retry policy installed, stale reads
// retry automatically, re-pinning the freshest replayed version each
// attempt.
//
// The divergence contract: after every replayed delta the replica's
// catalog is digest-audited against the primary's at the same version; a
// mismatch quarantines the replica with ErrDiverged — every read fails
// typed — until the primary re-attaches it and re-certifies it from a
// full catalog frame.
//
// A replica recovers exactly like a primary: OpenReplica replays its
// checkpoint + WAL (torn-tail truncation, stale-record skip included) and
// resumes tailing from its last applied version when re-attached.
type Replica struct {
	//lockorder:level 26
	mu       sync.Mutex
	sys      *System
	fol      *replica.Follower
	id       string
	attached *System // the primary currently shipping to this replica
	promoted bool
}

// OpenReplica recovers (or initializes) a follower's durable catalog
// directory, exactly as els.Open recovers a primary's, and returns a
// Replica serving read-only estimation at the recovered version. It
// serves — ever more stale — even before it is attached to a primary with
// System.AttachReplica.
func OpenReplica(dir string) (*Replica, error) {
	id := filepath.Base(filepath.Clean(dir))
	d, err := durable.OpenScoped(dir, "replica:"+id+":")
	if err != nil {
		return nil, err
	}
	sys := newSystem(snapshot.NewStoreAt(d.Catalog(), d.Version()), d)
	sys.fol = replica.NewFollower(id, d, sys.store)
	return &Replica{sys: sys, fol: sys.fol, id: id}, nil
}

// ID returns the replica's identifier: its data directory base name.
func (r *Replica) ID() string { return r.id }

// serving returns the inner system while the replica is still a replica.
func (r *Replica) serving() (*System, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.promoted {
		return nil, fmt.Errorf("%w: replica %s was promoted; use the promoted System", ErrClosed, r.id)
	}
	return r.sys, nil
}

// Estimate is EstimateContext with a background context.
func (r *Replica) Estimate(sql string, algo Algorithm) (*Estimate, error) {
	return r.EstimateContext(context.Background(), sql, algo) //ctxflow:allow context-less compatibility wrapper
}

// EstimateContext estimates against the replica's current replayed
// catalog version, with the same governance, admission control, and typed
// errors as the primary's EstimateContext. Results are stamped with
// Replica=true and the ReplicaLag of the pinned version; a read beyond
// Limits.MaxReplicaLag fails with ErrStaleReplica, and a quarantined
// replica fails with ErrDiverged.
func (r *Replica) EstimateContext(ctx context.Context, sql string, algo Algorithm) (*Estimate, error) {
	sys, err := r.serving()
	if err != nil {
		return nil, err
	}
	est, err := sys.EstimateContext(ctx, sql, algo)
	if err != nil {
		return nil, err
	}
	r.stamp(est)
	return est, nil
}

// Explain is ExplainContext with a background context.
func (r *Replica) Explain(sql string, algo Algorithm) (string, error) {
	return r.ExplainContext(context.Background(), sql, algo) //ctxflow:allow context-less compatibility wrapper
}

// ExplainContext renders the Explain report from the replica, including
// the pinned catalog version and the replica lag it was served at. The
// staleness and quarantine contracts of EstimateContext apply.
func (r *Replica) ExplainContext(ctx context.Context, sql string, algo Algorithm) (string, error) {
	est, err := r.EstimateContext(ctx, sql, algo)
	if err != nil {
		return "", err
	}
	return formatExplain(est), nil
}

// stamp marks an estimate as replica-served and computes the lag of its
// pinned version against the highest primary version announced.
func (r *Replica) stamp(est *Estimate) {
	est.Replica = true
	if known := r.fol.Known(); known > est.CatalogVersion {
		est.ReplicaLag = known - est.CatalogVersion
	}
}

// SetLimits installs the replica's serving limits; MaxReplicaLag is the
// replication-specific knob (see Limits).
func (r *Replica) SetLimits(l Limits) { r.sys.SetLimits(l) }

// Limits returns the replica's current limits.
func (r *Replica) Limits() Limits { return r.sys.Limits() }

// SetRetryPolicy installs the replica's retry policy. Stale reads
// (ErrStaleReplica) are retryable: each retry re-pins the freshest
// replayed catalog version, so a briefly-lagging replica serves after a
// backoff instead of failing.
func (r *Replica) SetRetryPolicy(p RetryPolicy) { r.sys.SetRetryPolicy(p) }

// CatalogVersion returns the replica's current applied catalog version.
func (r *Replica) CatalogVersion() uint64 { return r.fol.Version() }

// Lag returns how many versions the replica currently trails the highest
// announced primary version.
func (r *Replica) Lag() uint64 { return r.fol.Lag() }

// Quarantined returns the replica's sticky divergence error (matching
// ErrDiverged), or nil while it is a certified copy of the primary.
func (r *Replica) Quarantined() error { return r.fol.Quarantined() }

// Close detaches the replica from its primary (if attached) and drains
// its serving layer; the replica's durable state remains on disk for a
// later OpenReplica.
func (r *Replica) Close(ctx context.Context) error {
	r.mu.Lock()
	primary := r.attached
	r.attached = nil
	promoted := r.promoted
	r.mu.Unlock()
	if primary != nil {
		primary.DetachReplica(r)
	}
	if promoted {
		return nil // the promoted System owns the serving layer now
	}
	return r.sys.Close(ctx)
}

// Promote converts the replica into a standalone primary at its current
// version and returns the now-writable System: the replica is detached
// from its old primary, stops being lag-checked, and subsequent catalog
// mutations append to its own WAL from the version it had reached —
// failover. A quarantined replica refuses to promote (its state is
// provably not the primary's); resync it first by re-attaching. After
// Promote the Replica handle is dead: its read methods fail with
// ErrClosed.
func (r *Replica) Promote() (*System, error) {
	r.mu.Lock()
	if r.promoted {
		r.mu.Unlock()
		return nil, fmt.Errorf("%w: replica %s already promoted", ErrClosed, r.id)
	}
	if q := r.fol.Quarantined(); q != nil {
		r.mu.Unlock()
		return nil, fmt.Errorf("els: refusing to promote replica %s: %w", r.id, q)
	}
	primary := r.attached
	r.attached = nil
	r.promoted = true
	r.mu.Unlock()
	// Detach outside r.mu: DetachReplica re-takes it to clear r.attached.
	if primary != nil {
		primary.DetachReplica(r)
	}
	r.sys.promoted.Store(true) // lifts the per-read replica gate
	return r.sys, nil
}

// CatalogDigest returns the version and hex SHA-256 digest of the
// system's current published catalog — the self-certifying identity
// replication ships with every frame and audits compare across primary
// and replicas: two systems whose digests agree at a version hold
// byte-identical statistics and produce bit-identical estimates.
func (s *System) CatalogDigest() (uint64, string, error) {
	snap := s.store.Current()
	d, err := replica.CatalogDigest(snap.Catalog(), snap.Version())
	if err != nil {
		return 0, "", fmt.Errorf("%w: digesting catalog at version %d: %w", ErrInternal, snap.Version(), err)
	}
	return snap.Version(), hex.EncodeToString(d[:]), nil
}

// CatalogDigest returns the replica's current version and catalog digest.
func (r *Replica) CatalogDigest() (uint64, string, error) { return r.sys.CatalogDigest() }

// AttachReplica starts shipping this primary's acknowledged mutations to
// r: the replica is first resynchronized to the primary's current catalog
// (a digest-certified full frame) and then tails every subsequent WAL
// record. Re-attaching a quarantined replica is the explicit heal path —
// it lifts the quarantine by re-certifying the replica from a full frame.
// Only a durable primary (els.Open) can ship, and replicas cannot cascade.
func (s *System) AttachReplica(r *Replica) error {
	if s.dur == nil {
		return fmt.Errorf("%w: replication requires a durable primary (use els.Open)", ErrDurability)
	}
	if s.fol != nil && !s.promoted.Load() {
		return fmt.Errorf("%w: a replica cannot ship to followers (promote it first)", ErrDurability)
	}
	r.mu.Lock()
	if r.promoted {
		r.mu.Unlock()
		return fmt.Errorf("%w: replica %s was promoted and cannot re-attach", ErrClosed, r.id)
	}
	r.attached = s
	r.mu.Unlock()

	s.shipMu.Lock()
	// The closing check lives under shipMu so it orders against Close's
	// shipper teardown: an attach that observes closing fails fast with
	// the typed drain error; one that raced just ahead of Close installs
	// its shipper before the teardown acquires shipMu, so Close still
	// finds and stops it — either way nothing leaks and nothing blocks.
	if s.closing.Load() {
		s.shipMu.Unlock()
		r.mu.Lock()
		if r.attached == s {
			r.attached = nil
		}
		r.mu.Unlock()
		return fmt.Errorf("%w: draining, not attaching replicas", ErrClosed)
	}
	if s.shipper == nil {
		s.shipper = replica.NewShipper(func() (*catalog.Catalog, uint64) {
			snap := s.store.Current()
			return snap.Catalog(), snap.Version()
		})
		s.dur.SetSink(s.shipper)
	}
	sh := s.shipper
	s.shipMu.Unlock()
	return sh.Attach(r.fol)
}

// DetachReplica stops shipping to r. The replica keeps serving at the
// version it reached, growing ever more stale (its lag keeps counting
// against the last announced primary version).
func (s *System) DetachReplica(r *Replica) {
	if sh := s.currentShipper(); sh != nil {
		sh.Detach(r.id)
	}
	r.mu.Lock()
	if r.attached == s {
		r.attached = nil
	}
	r.mu.Unlock()
}

// currentShipper returns the primary's shipper, or nil before the first
// AttachReplica and after Close.
func (s *System) currentShipper() *replica.Shipper {
	s.shipMu.Lock()
	defer s.shipMu.Unlock()
	return s.shipper
}

// WaitForReplicas blocks until every live attached follower (not
// quarantined, not down) has applied the primary's current catalog
// version, nudging stragglers to resync, or until ctx dies (ErrCanceled).
// It is the catch-up barrier benchmarks and tests use; steady-state
// replication does not need it.
func (s *System) WaitForReplicas(ctx context.Context) error {
	sh := s.currentShipper()
	if sh == nil {
		return nil
	}
	for {
		target := s.store.Version()
		caught := true
		for _, f := range sh.Stats().Followers {
			if f.Quarantined || f.Down {
				continue
			}
			if f.Version < target {
				caught = false
				break
			}
		}
		if caught {
			return nil
		}
		sh.Nudge()
		t := time.NewTimer(2 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return fmt.Errorf("%w: waiting for replicas: %w", ErrCanceled, ctx.Err())
		case <-t.C:
		}
	}
}
