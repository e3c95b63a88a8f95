package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	els "repro"
	"repro/internal/catalog"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/replica"
)

// The per-round fault rotation. Rotating (rather than sampling) guarantees
// coverage of every kind in one CI run; the seed still picks victims,
// fault parameters, and crash instants.
const (
	faultNone = iota
	faultLinkDrop
	faultLinkDelay
	faultLinkCorrupt
	faultLinkTruncate
	faultLinkErr
	faultFollowerCrash
	faultPrimaryCrash
	faultDiverge
	faultKinds
)

var faultNames = [faultKinds]string{
	"none", "link-drop", "link-delay", "link-corrupt", "link-truncate",
	"link-err", "follower-crash", "primary-crash", "diverge",
}

// maxReplicaLag is the staleness bound installed on every replica. The
// per-round staleness audit wedges a link until a replica trails past it
// and demands an ErrStaleReplica rejection.
const maxReplicaLag = 3

// replSoak carries one replication soak's state across rounds.
type replSoak struct {
	soak
	primary *els.System
	reps    []*els.Replica
	ids     []string
}

const replProbe = "SELECT COUNT(*) FROM m0 WHERE x < 5"

// dir is the durable directory of the primary ("primary") or of replica id.
func (h *replSoak) dir(id string) string { return filepath.Join(h.cfg.Dir, id) }

// RunReplication executes one replication soak under cfg.Dir: a primary
// ships WAL frames to a fleet of read replicas while injected faults drop,
// delay, corrupt, and truncate frames on the wire, crash the primary and
// the followers' disks mid-ship, and silently corrupt a follower's
// replayed catalog. Every round settles and audits the replication
// contract: the digest audit catches every injected divergence,
// acknowledged mutations reach every live follower, and reads past the
// lag bound are rejected with ErrStaleReplica.
func RunReplication(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, errors.New("chaos: RunReplication needs a Dir")
	}
	cfg.Rounds = or(cfg.Rounds, 10)
	cfg.Ops = or(cfg.Ops, 20)
	cfg.Replicas = or(cfg.Replicas, 2)
	h := &replSoak{soak: newSoak(cfg), reps: make([]*els.Replica, cfg.Replicas)}
	for i := range h.reps {
		h.ids = append(h.ids, fmt.Sprintf("r%d", i))
	}
	faultinject.Reset()
	defer h.shutdown(ctx)

	if err := h.boot(ctx); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for round := 0; round < cfg.Rounds; round++ {
		if err := h.round(ctx, round, rng.Int63()); err != nil {
			return nil, err
		}
		h.count("rounds", 1)
	}
	faultinject.Reset()

	// The soak's settled identity: the primary's version and digest plus
	// every follower's digest (all must agree).
	var version uint64
	digests := make(map[string]string)
	if pver, pdig, err := h.primary.CatalogDigest(); err != nil {
		h.violationf("final: primary digest failed: %v", err)
	} else {
		version, digests["primary"] = pver, pdig
		for i := range h.reps {
			h.auditDigest(cfg.Rounds, i)
			if _, fdig, err := h.reps[i].CatalogDigest(); err == nil {
				digests[h.ids[i]] = fdig
			}
		}
	}
	h.absorbShipping()
	rep := h.report()
	rep.FinalVersion, rep.Digests = version, digests
	return rep, nil
}

// boot opens the primary and the whole replica fleet, attaches everyone,
// seeds the probe table, and waits for the fleet to certify it. Whatever it
// opened before a failure stays in h for shutdown to close.
func (h *replSoak) boot(ctx context.Context) error {
	sys, err := els.Open(h.dir("primary"))
	if err != nil {
		return fmt.Errorf("chaos: opening primary: %w", err)
	}
	h.primary = sys
	for i := range h.reps {
		rep, err := els.OpenReplica(h.dir(h.ids[i]))
		if err != nil {
			return fmt.Errorf("chaos: opening replica %s: %w", h.ids[i], err)
		}
		h.reps[i] = rep
		rep.SetLimits(els.Limits{MaxReplicaLag: maxReplicaLag})
		if err := sys.AttachReplica(rep); err != nil {
			return fmt.Errorf("chaos: attaching replica %s: %w", h.ids[i], err)
		}
	}
	if card, err := sys.TableCard("m0"); err == nil {
		// Reused directory: resume the monotonic card sequence where the
		// recovered catalog left off.
		h.maxTried["m0"] = card
	} else if err := h.declareNext(sys, "m0"); err != nil {
		return fmt.Errorf("chaos: seeding probe table: %w", err)
	}
	return h.settle(ctx, "boot")
}

// round arms one injected fault, runs a mutation storm with concurrent
// replica readers, settles the fleet, audits digests and acknowledged
// mutations, heals whatever the fault broke, and finishes with a quiesced
// staleness audit.
func (h *replSoak) round(ctx context.Context, round int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	kind := round % faultKinds
	victim := rng.Intn(len(h.reps))
	h.logEvent(map[string]any{"event": "round", "round": round,
		"fault": faultNames[kind], "victim": h.ids[victim]})

	crashAt := rng.Intn(h.cfg.Ops)
	crashPoint := []string{durable.PointWALAppend, durable.PointWALSync}[rng.Intn(2)]
	injectedBefore := h.counted("divergences_injected")
	h.arm(kind, victim, rng)

	// Readers hammer every replica through the storm, while a single
	// deterministic mutator runs it, so the acknowledged sequence (and
	// therefore the final digest) is a function of the seed.
	readers := make([]func(stop <-chan struct{}), len(h.reps))
	for i := range readers {
		readers[i] = func(stop <-chan struct{}) { h.read(round, i, stop) }
	}
	primaryCrashed := false
	h.fleet(1, func(int) {
		for i := 0; i < h.cfg.Ops; i++ {
			if kind == faultPrimaryCrash && i == crashAt {
				faultinject.Enable(crashPoint, kill(rng))
				h.logEvent(map[string]any{"event": "arm-crash", "round": round, "point": crashPoint})
			}
			err := h.declareNext(h.primary, "m0")
			if errors.Is(err, els.ErrDurability) {
				h.logEvent(map[string]any{"event": "primary-crash", "round": round, "mutation": i})
				primaryCrashed = true
				return
			}
			if err != nil {
				h.violationf("round %d: mutation error outside taxonomy: %v", round, err)
			}
			if rng.Intn(4) == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}, readers...)
	divergeFired := h.counted("divergences_injected") > injectedBefore
	faultinject.Reset() // disarm whatever never fired

	if primaryCrashed {
		if err := h.reopenPrimary(ctx, round); err != nil {
			return err
		}
	}
	if err := h.settleAndAudit(ctx, round, divergeFired, victim); err != nil {
		return err
	}
	return h.staleAudit(ctx, round, rng.Intn(len(h.reps)))
}

// read hammers replica i until stop closes. Allowed outcomes: success
// (stamped as a replica read), ErrStaleReplica (lag bound), and ErrDiverged
// (quarantine). Anything else is a breach.
func (h *replSoak) read(round, i int, stop <-chan struct{}) {
	var served, stale int
	defer func() {
		h.count("served_reads", served)
		h.count("stale_reads", stale)
	}()
	for !isClosed(stop) {
		est, err := h.reps[i].Estimate(replProbe, els.AlgorithmELS)
		switch {
		case err == nil:
			served++
			if !est.Replica {
				h.violationf("round %d: replica %s read not stamped as a replica read", round, h.ids[i])
				return
			}
		case errors.Is(err, els.ErrStaleReplica), errors.Is(err, els.ErrDiverged):
			stale++
		default:
			h.violationf("round %d: replica %s read failed outside taxonomy: %v", round, h.ids[i], err)
			return
		}
	}
}

// arm installs the round's injected fault. Inactive LinkFault fields must
// be -1: zero means "corrupt bit 0" / "truncate to 0 bytes".
func (h *replSoak) arm(kind, victim int, rng *rand.Rand) {
	if kind >= faultLinkDrop && kind <= faultLinkErr {
		// A link fault hits the next one to three frames shipped to victim.
		f := faultinject.Fault{Times: 1 + rng.Intn(3)}
		switch kind {
		case faultLinkDrop:
			f.Payload = faultinject.LinkFault{Drop: true, CorruptBit: -1, Truncate: -1}
		case faultLinkDelay:
			f.Delay = time.Duration(1+rng.Intn(3)) * time.Millisecond
		case faultLinkCorrupt:
			f.Payload = faultinject.LinkFault{CorruptBit: rng.Intn(4096), Truncate: -1}
		case faultLinkTruncate:
			f.Payload = faultinject.LinkFault{CorruptBit: -1, Truncate: rng.Intn(64)}
		case faultLinkErr:
			f.Err = errors.New("chaos: link reset")
		}
		faultinject.Enable(replica.PointShip+":"+h.ids[victim], f)
	}
	switch kind {
	case faultFollowerCrash:
		faultinject.Enable("replica:"+h.ids[victim]+":"+durable.PointWALAppend, kill(rng))
	case faultDiverge:
		// Silently corrupt the follower's replayed catalog clone: the shipped
		// digest no longer matches, and only the audit stands between this
		// and a replica serving wrong estimates forever. The corruptor itself
		// records the injection (Fault.Times self-disarms the point, so its
		// hit counter is gone by the time the round settles).
		faultinject.Enable(replica.PointApply+":"+h.ids[victim], faultinject.Fault{
			Times: 1,
			Payload: func(cat *catalog.Catalog) {
				h.count("divergences_injected", 1)
				if ts := cat.Table("m0"); ts != nil {
					ts.Card++
				}
			},
		})
	}
}

// reopenPrimary recovers a crashed primary and re-attaches the whole
// fleet, auditing the recovery against the acknowledge contract.
func (h *replSoak) reopenPrimary(ctx context.Context, round int) error {
	h.count("primary_crashes", 1)
	acked := h.primary.CatalogVersion()
	ackedCard, cardErr := h.primary.TableCard("m0")
	h.absorbShipping()
	within(ctx, h.primary.Close)

	sys, err := els.Open(h.dir("primary"))
	if err != nil {
		h.violationf("round %d: primary recovery failed: %v", round, err)
		return fmt.Errorf("chaos: primary recovery: %w", err)
	}
	h.primary = sys
	rv := sys.CatalogVersion()
	h.recoveredIn(round, "primary", rv, acked, acked+1)
	if got, err := sys.TableCard("m0"); cardErr == nil && (err != nil || got < ackedCard) {
		h.violationf("round %d: primary recovery regressed m0 below its acknowledged card", round)
	}
	h.logEvent(map[string]any{"event": "primary-recovered", "round": round,
		"version": rv, "ahead": rv - acked})
	for i, rep := range h.reps {
		if err := sys.AttachReplica(rep); err != nil {
			h.violationf("round %d: re-attaching replica %s after primary crash: %v", round, h.ids[i], err)
		}
	}
	return nil
}

// settleAndAudit drives the fleet to the primary's version and checks the
// round's two core invariants on every follower: a follower that settled
// at version V holds a catalog SHA-256-identical to the primary's at V
// (anything else is an undetected divergence), and no live follower is
// missing an acknowledged mutation. Followers the fault took down or
// quarantined are healed — reopened from their own directory or
// re-attached through a certifying full resync — and must catch up.
func (h *replSoak) settleAndAudit(ctx context.Context, round int, divergeFired bool, victim int) error {
	if err := h.settle(ctx, fmt.Sprintf("round %d", round)); err != nil {
		return err
	}
	// Every heal is a catch-up; every quarantine a detection.
	catchUps, detected := h.counted("catch_ups"), h.counted("divergences_detected")
	down := make(map[string]bool)
	for _, f := range h.primary.ReplicationStats().Followers {
		if f.Down {
			down[f.ID] = true
		}
	}
	for i, rep := range h.reps {
		switch q := rep.Quarantined(); {
		case down[h.ids[i]]:
			h.count("follower_crashes", 1)
			if err := h.reopenFollower(ctx, round, i); err != nil {
				return err
			}
		case q != nil:
			if !errors.Is(q, els.ErrDiverged) {
				h.violationf("round %d: replica %s quarantine outside taxonomy: %v", round, h.ids[i], q)
			}
			var dv *els.DivergenceError
			if !errors.As(q, &dv) {
				h.violationf("round %d: replica %s quarantine carries no DivergenceError: %v", round, h.ids[i], q)
			}
			h.count("divergences_detected", 1)
			h.logEvent(map[string]any{"event": "quarantine", "round": round, "replica": h.ids[i]})
			// The heal path: re-attaching is the operator acknowledging the
			// divergence; it re-certifies the replica from a full frame.
			if err := h.primary.AttachReplica(rep); err != nil {
				h.violationf("round %d: healing replica %s: %v", round, h.ids[i], err)
			}
			h.count("catch_ups", 1)
		default:
			h.auditDigest(round, i)
		}
	}
	if divergeFired && h.counted("divergences_detected") == detected {
		h.violationf("round %d: injected divergence on %s went undetected", round, h.ids[victim])
	}
	if h.counted("catch_ups") == catchUps {
		return nil
	}
	// Healed replicas must catch back up and then pass the same audit.
	if err := h.awaitHeal(ctx, fmt.Sprintf("round %d heal", round)); err != nil {
		return err
	}
	for i := range h.reps {
		h.auditDigest(round, i)
	}
	return nil
}

// awaitHeal blocks until every follower is unquarantined and caught up to
// the primary — the barrier after a heal, which WaitForReplicas alone
// cannot provide: it deliberately skips quarantined followers, and the
// certifying full resync that lifts a quarantine is asynchronous.
func (h *replSoak) awaitHeal(ctx context.Context, phase string) error {
	if err := h.settle(ctx, phase); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		target := h.primary.CatalogVersion()
		if !slices.ContainsFunc(h.reps, func(rep *els.Replica) bool {
			return rep.Quarantined() != nil || rep.CatalogVersion() < target
		}) {
			return nil
		}
		if time.Now().After(deadline) {
			h.violationf("%s: healed fleet failed to catch up", phase)
			return fmt.Errorf("chaos: %s: healed fleet failed to catch up", phase)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// auditDigest compares one settled follower's catalog identity against
// the primary's. The fleet is quiesced, so any mismatch is a breach: a
// version short of the primary's lost an acknowledged mutation, and a
// differing digest at the same version is a divergence the audit missed.
func (h *replSoak) auditDigest(round, i int) {
	pver, pdig, err := h.primary.CatalogDigest()
	if err != nil {
		h.violationf("round %d: primary digest failed: %v", round, err)
		return
	}
	fver, fdig, err := h.reps[i].CatalogDigest()
	switch {
	case err != nil:
		h.violationf("round %d: replica %s digest failed: %v", round, h.ids[i], err)
	case fver != pver:
		h.violationf("round %d: replica %s settled at version %d, primary at %d: acknowledged mutations missing",
			round, h.ids[i], fver, pver)
	case fdig != pdig:
		h.violationf("round %d: undetected divergence: replica %s digest %s != primary %s at version %d",
			round, h.ids[i], fdig, pdig, pver)
	}
}

// reopenFollower recovers a follower whose own disk was killed: close it,
// reopen its directory (the follower recovers from its own WAL and
// checkpoints exactly like a primary), and re-attach.
func (h *replSoak) reopenFollower(ctx context.Context, round, i int) error {
	prev := h.reps[i].CatalogVersion()
	within(ctx, h.reps[i].Close)
	rep, err := els.OpenReplica(h.dir(h.ids[i]))
	if err != nil {
		h.violationf("round %d: replica %s recovery failed: %v", round, h.ids[i], err)
		return fmt.Errorf("chaos: replica recovery: %w", err)
	}
	h.reps[i] = rep
	// A follower recovers at most the one record it was applying when
	// killed, beyond anything it applied.
	h.recoveredIn(round, "replica "+h.ids[i], rep.CatalogVersion(), 0, prev+1)
	rep.SetLimits(els.Limits{MaxReplicaLag: maxReplicaLag})
	if err := h.primary.AttachReplica(rep); err != nil {
		h.violationf("round %d: re-attaching recovered replica %s: %v", round, h.ids[i], err)
	}
	h.count("catch_ups", 1)
	h.logEvent(map[string]any{"event": "follower-recovered", "round": round,
		"replica": h.ids[i], "version": rep.CatalogVersion()})
	return nil
}

// staleAudit is the quiesced staleness probe: wedge one replica's link
// (frames drop, announcements still flow — lag stays honest), push the
// primary past maxReplicaLag, and demand the rejection the contract
// promises. Then release the link, wait for catch-up, and demand a
// successful read bit-identical to the primary's at the same version.
func (h *replSoak) staleAudit(ctx context.Context, round, victim int) error {
	rep, id := h.reps[victim], h.ids[victim]
	link := replica.PointShip + ":" + id
	faultinject.Enable(link, faultinject.Fault{
		Payload: faultinject.LinkFault{Drop: true, CorruptBit: -1, Truncate: -1},
	})
	for i := 0; i < maxReplicaLag+2; i++ {
		if err := h.declareNext(h.primary, "m0"); err != nil {
			h.violationf("round %d: stale-audit mutation failed: %v", round, err)
			faultinject.Disable(link)
			return nil
		}
	}
	lag := rep.Lag()
	_, err := rep.Estimate(replProbe, els.AlgorithmELS)
	var sre *els.StaleReplicaError
	switch {
	case !errors.Is(err, els.ErrStaleReplica):
		h.violationf("round %d: read on %s at lag %d (bound %d) not rejected with ErrStaleReplica: %v",
			round, id, lag, maxReplicaLag, err)
	case !errors.As(err, &sre):
		h.violationf("round %d: stale rejection carries no StaleReplicaError: %v", round, err)
	case sre.Lag <= maxReplicaLag:
		h.violationf("round %d: stale rejection reports lag %d within the bound %d", round, sre.Lag, sre.MaxLag)
	}
	faultinject.Disable(link)
	if err := h.settle(ctx, fmt.Sprintf("round %d stale-audit", round)); err != nil {
		return err
	}
	want, err := h.primary.Estimate(replProbe, els.AlgorithmELS)
	if err != nil {
		h.violationf("round %d: primary probe failed: %v", round, err)
		return nil
	}
	got, err := rep.Estimate(replProbe, els.AlgorithmELS)
	switch {
	case err != nil:
		h.violationf("round %d: caught-up replica %s still rejects reads: %v", round, id, err)
	case got.CatalogVersion != want.CatalogVersion:
		h.violationf("round %d: caught-up replica %s pinned version %d, primary %d",
			round, id, got.CatalogVersion, want.CatalogVersion)
	case math.Float64bits(got.FinalSize) != math.Float64bits(want.FinalSize):
		h.violationf("round %d: replica %s estimate not bit-identical to primary at version %d: %x != %x",
			round, id, want.CatalogVersion, math.Float64bits(got.FinalSize), math.Float64bits(want.FinalSize))
	}
	h.count("stale_audits", 1)
	return nil
}

// settle drives every live follower to the primary's current version.
func (h *replSoak) settle(ctx context.Context, phase string) error {
	if err := within(ctx, h.primary.WaitForReplicas); err != nil {
		h.violationf("%s: fleet failed to catch up: %v", phase, err)
		return fmt.Errorf("chaos: %s: fleet failed to catch up: %w", phase, err)
	}
	return nil
}

// absorbShipping folds the current primary's shipping counters into the
// report; a primary crash resets the live counters, so they are absorbed
// before every reopen and once at the end.
func (h *replSoak) absorbShipping() {
	st := h.primary.ReplicationStats()
	h.count("frames_shipped", int(st.FramesShipped))
	h.count("resyncs", int(st.Resyncs))
	h.count("queue_drops", int(st.QueueDrops))
	h.count("link_drops", int(st.LinkDrops))
}

// shutdown closes the fleet and the primary. Close is idempotent, so a
// replica or primary closed for a reopen that then failed closes again
// harmlessly; a failed boot leaves the ones it never opened nil.
func (h *replSoak) shutdown(ctx context.Context) {
	for _, rep := range h.reps {
		if rep != nil {
			within(ctx, rep.Close)
		}
	}
	if h.primary != nil {
		within(ctx, h.primary.Close)
	}
}
