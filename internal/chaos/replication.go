package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	els "repro"
	"repro/internal/catalog"
	"repro/internal/durable"
	"repro/internal/faultinject"
	"repro/internal/replica"
	"repro/internal/workpool"
)

// ReplicationConfig shapes one replication soak: a primary ships WAL
// frames to a fleet of read replicas while injected faults drop, delay,
// corrupt, and truncate frames on the wire, crash the primary and the
// followers' disks mid-ship, and silently corrupt a follower's replayed
// catalog. Every round settles and audits the replication contract: the
// digest audit catches every injected divergence, acknowledged mutations
// reach every live follower, and reads past Limits.MaxReplicaLag are
// rejected with ErrStaleReplica. The zero value (plus directories) is
// usable.
type ReplicationConfig struct {
	// Seed drives every random decision.
	Seed int64
	// PrimaryDir is the primary's durable catalog directory. Required.
	PrimaryDir string
	// ReplicaDirs are the follower directories (their base names become
	// the replica IDs). At least one is required.
	ReplicaDirs []string
	// Rounds is the number of fault/settle/audit cycles (default 10).
	// Fault kinds rotate deterministically, so Rounds >= 9 exercises every
	// kind at least once.
	Rounds int
	// MutationsPerRound bounds the primary's storm per round (default 20).
	MutationsPerRound int
	// MaxReplicaLag is the staleness bound installed on every replica
	// (default 3). The per-round staleness audit wedges a link until a
	// replica trails past it and demands an ErrStaleReplica rejection.
	MaxReplicaLag int
	// LogW, if non-nil, receives one JSON line per event — the artifact a
	// CI replication-smoke run uploads for post-mortem debugging.
	LogW io.Writer
}

// ReplicationReport is the audited outcome of a replication soak.
type ReplicationReport struct {
	// Rounds is the number of completed fault/settle/audit cycles.
	Rounds int
	// MutationsAcked counts mutations the primary acknowledged; the audit
	// fails the soak if a settled live follower is missing any of them.
	MutationsAcked int
	// FramesShipped, Resyncs, QueueDrops, and LinkDrops accumulate the
	// shipping layer's counters across every primary incarnation.
	FramesShipped, Resyncs, QueueDrops, LinkDrops uint64
	// ServedReads and StaleReads count replica reads that succeeded and
	// reads rejected for staleness or quarantine during the storms.
	ServedReads, StaleReads uint64
	// DivergencesInjected counts rounds whose corruptor actually fired;
	// DivergencesDetected counts quarantines raised by the digest audit.
	// The soak fails unless they match — an injected divergence that goes
	// undetected is the one unforgivable outcome.
	DivergencesInjected, DivergencesDetected int
	// PrimaryCrashes and FollowerCrashes count injected durability kills.
	PrimaryCrashes, FollowerCrashes int
	// StaleAudits counts quiesced staleness probes (each demands an
	// ErrStaleReplica rejection at lag > MaxReplicaLag, then a successful
	// bit-identical read after catch-up); CatchUps counts healed replicas
	// (reopened after a crash or re-attached after quarantine) that caught
	// back up to the primary.
	StaleAudits, CatchUps int
	// FinalVersion and Digest identify the primary's final catalog;
	// FollowerDigests maps every replica ID to its settled digest. Two
	// soaks from the same seed end at identical digests, and every
	// follower digest equals the primary's — the artifact CI archives.
	FinalVersion    uint64
	Digest          string
	FollowerDigests map[string]string
	// Violations lists every contract breach. A clean soak has none.
	Violations []string
}

// Failed reports whether the soak breached any contract.
func (r *ReplicationReport) Failed() bool { return len(r.Violations) > 0 }

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

// replHarness carries one soak's state across rounds.
type replHarness struct {
	ledger
	cfg     ReplicationConfig
	primary *els.System
	reps    []*els.Replica
	ids     []string

	// Guarded by ledger.mu.
	maxTried float64 // highest card ever attempted for table m0
	report   ReplicationReport
}

const replProbe = "SELECT COUNT(*) FROM m0 WHERE x < 5"

// RunReplication executes one replication soak. The returned error
// reports a harness malfunction; contract breaches land in
// ReplicationReport.Violations.
func RunReplication(cfg ReplicationConfig) (*ReplicationReport, error) {
	if cfg.PrimaryDir == "" {
		return nil, errors.New("chaos: ReplicationConfig.PrimaryDir is required")
	}
	if len(cfg.ReplicaDirs) == 0 {
		return nil, errors.New("chaos: ReplicationConfig.ReplicaDirs is required")
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 10
	}
	if cfg.MutationsPerRound <= 0 {
		cfg.MutationsPerRound = 20
	}
	if cfg.MaxReplicaLag <= 0 {
		cfg.MaxReplicaLag = 3
	}
	h := &replHarness{ledger: ledger{logW: cfg.LogW}, cfg: cfg, reps: make([]*els.Replica, len(cfg.ReplicaDirs))}
	for _, dir := range cfg.ReplicaDirs {
		h.ids = append(h.ids, filepath.Base(filepath.Clean(dir)))
	}
	faultinject.Reset()

	if err := h.boot(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	for round := 0; round < cfg.Rounds; round++ {
		if err := h.round(round, rng.Int63()); err != nil {
			h.shutdown()
			return nil, err
		}
		h.report.Rounds++
	}
	faultinject.Reset()
	h.finalAudit()
	h.shutdown()

	h.mu.Lock()
	defer h.mu.Unlock()
	h.report.Violations = h.violations
	out := h.report
	return &out, nil
}

// boot opens the primary and the whole replica fleet, attaches everyone,
// seeds the probe table, and waits for the fleet to certify it.
func (h *replHarness) boot() error {
	sys, err := els.Open(h.cfg.PrimaryDir)
	if err != nil {
		return fmt.Errorf("chaos: opening primary: %w", err)
	}
	h.primary = sys
	for i, dir := range h.cfg.ReplicaDirs {
		rep, err := els.OpenReplica(dir)
		if err != nil {
			return fmt.Errorf("chaos: opening replica %s: %w", h.ids[i], err)
		}
		rep.SetLimits(els.Limits{MaxReplicaLag: h.cfg.MaxReplicaLag})
		if err := sys.AttachReplica(rep); err != nil {
			return fmt.Errorf("chaos: attaching replica %s: %w", h.ids[i], err)
		}
		h.reps[i] = rep
	}
	if card, err := sys.TableCard("m0"); err == nil {
		// Reused directory: resume the monotonic card sequence where the
		// recovered catalog left off.
		h.maxTried = card
	} else if err := h.mutate(); err != nil {
		return fmt.Errorf("chaos: seeding probe table: %w", err)
	}
	return h.settle("boot")
}

// mutate republishes table m0 with a strictly increasing cardinality and
// counts the acknowledgement. The monotonic sequence is what makes the
// soak's final digest a pure function of the seed.
func (h *replHarness) mutate() error {
	h.mu.Lock()
	card := h.maxTried + 1
	h.maxTried = card
	h.mu.Unlock()
	err := h.primary.DeclareStats("m0", card, map[string]float64{"x": 10})
	if err == nil {
		h.mu.Lock()
		h.report.MutationsAcked++
		h.mu.Unlock()
	}
	return err
}

// round arms one injected fault, runs a mutation storm with concurrent
// replica readers, settles the fleet, audits digests and acknowledged
// mutations, heals whatever the fault broke, and finishes with a quiesced
// staleness audit.
func (h *replHarness) round(round int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	kind := round % faultKinds
	victim := rng.Intn(len(h.reps))
	h.logEvent(map[string]any{"event": "round", "round": round,
		"fault": faultNames[kind], "victim": h.ids[victim]})

	crashAt := rng.Intn(h.cfg.MutationsPerRound)
	crashPoint := []string{durable.PointWALAppend, durable.PointWALSync}[rng.Intn(2)]
	h.mu.Lock()
	injectedBefore := h.report.DivergencesInjected
	h.mu.Unlock()
	h.arm(kind, victim, rng)

	// Readers hammer every replica through the storm. Allowed outcomes:
	// success (stamped as a replica read), ErrStaleReplica (lag bound), and
	// ErrDiverged (quarantine). Anything else is a breach.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	onPanic := func(err error) {
		h.violation(fmt.Sprintf("round %d: background goroutine failed: %v", round, err))
	}
	for i := range h.reps {
		i := i
		workpool.Go(&readers, onPanic, func() error {
			var served, stale uint64
			for {
				select {
				case <-stop:
					h.mu.Lock()
					h.report.ServedReads += served
					h.report.StaleReads += stale
					h.mu.Unlock()
					return nil
				default:
				}
				est, err := h.reps[i].Estimate(replProbe, els.AlgorithmELS)
				switch {
				case err == nil:
					served++
					if !est.Replica {
						h.violation(fmt.Sprintf("round %d: replica %s read not stamped as a replica read",
							round, h.ids[i]))
						return nil
					}
				case errors.Is(err, els.ErrStaleReplica):
					stale++
				case errors.Is(err, els.ErrDiverged):
					stale++
				default:
					h.violation(fmt.Sprintf("round %d: replica %s read failed outside taxonomy: %v",
						round, h.ids[i], err))
					return nil
				}
			}
		})
	}

	// The storm: a single deterministic mutator, so the acknowledged
	// sequence (and therefore the final digest) is a function of the seed.
	primaryCrashed := false
	for i := 0; i < h.cfg.MutationsPerRound; i++ {
		if kind == faultPrimaryCrash && i == crashAt {
			faultinject.Enable(crashPoint, faultinject.Fault{
				Times:   1,
				Payload: faultinject.DiskFault{ShortWrite: rng.Intn(60) - 10},
			})
			h.logEvent(map[string]any{"event": "arm-crash", "round": round, "point": crashPoint})
		}
		err := h.mutate()
		switch {
		case err == nil:
		case errors.Is(err, els.ErrDurability):
			h.logEvent(map[string]any{"event": "primary-crash", "round": round, "mutation": i})
			primaryCrashed = true
		default:
			h.violation(fmt.Sprintf("round %d: mutation error outside taxonomy: %v", round, err))
		}
		if primaryCrashed {
			break
		}
		if rng.Intn(4) == 0 {
			time.Sleep(time.Millisecond)
		}
	}
	close(stop)
	readers.Wait()

	h.mu.Lock()
	divergeFired := h.report.DivergencesInjected > injectedBefore
	h.mu.Unlock()
	faultinject.Reset() // disarm whatever never fired

	if primaryCrashed {
		if err := h.reopenPrimary(round); err != nil {
			return err
		}
	}
	if err := h.settleAndAudit(round, divergeFired, victim); err != nil {
		return err
	}
	return h.staleAudit(round, rng.Intn(len(h.reps)))
}

// arm installs the round's injected fault. Inactive LinkFault fields must
// be -1: zero means "corrupt bit 0" / "truncate to 0 bytes".
func (h *replHarness) arm(kind, victim int, rng *rand.Rand) {
	link := replica.PointShip + ":" + h.ids[victim]
	switch kind {
	case faultLinkDrop:
		faultinject.Enable(link, faultinject.Fault{
			Times:   1 + rng.Intn(3),
			Payload: faultinject.LinkFault{Drop: true, CorruptBit: -1, Truncate: -1},
		})
	case faultLinkDelay:
		faultinject.Enable(link, faultinject.Fault{
			Times: 1 + rng.Intn(3),
			Delay: time.Duration(1+rng.Intn(3)) * time.Millisecond,
		})
	case faultLinkCorrupt:
		faultinject.Enable(link, faultinject.Fault{
			Times:   1 + rng.Intn(3),
			Payload: faultinject.LinkFault{CorruptBit: rng.Intn(4096), Truncate: -1},
		})
	case faultLinkTruncate:
		faultinject.Enable(link, faultinject.Fault{
			Times:   1 + rng.Intn(3),
			Payload: faultinject.LinkFault{CorruptBit: -1, Truncate: rng.Intn(64)},
		})
	case faultLinkErr:
		faultinject.Enable(link, faultinject.Fault{
			Times: 1 + rng.Intn(3),
			Err:   errors.New("chaos: link reset"),
		})
	case faultFollowerCrash:
		faultinject.Enable("replica:"+h.ids[victim]+":"+durable.PointWALAppend, faultinject.Fault{
			Times:   1,
			Payload: faultinject.DiskFault{ShortWrite: rng.Intn(60) - 10},
		})
	case faultDiverge:
		// Silently corrupt the follower's replayed catalog clone: the shipped
		// digest no longer matches, and only the audit stands between this
		// and a replica serving wrong estimates forever. The corruptor itself
		// records the injection (Fault.Times self-disarms the point, so its
		// hit counter is gone by the time the round settles).
		faultinject.Enable(replica.PointApply+":"+h.ids[victim], faultinject.Fault{
			Times: 1,
			Payload: func(cat *catalog.Catalog) {
				h.mu.Lock()
				h.report.DivergencesInjected++
				h.mu.Unlock()
				if ts := cat.Table("m0"); ts != nil {
					ts.Card++
				}
			},
		})
	}
}

// reopenPrimary recovers a crashed primary and re-attaches the whole
// fleet, auditing the recovery against the acknowledge contract.
func (h *replHarness) reopenPrimary(round int) error {
	h.mu.Lock()
	h.report.PrimaryCrashes++
	h.mu.Unlock()
	acked := h.primary.CatalogVersion()
	ackedCard, cardErr := h.primary.TableCard("m0")
	h.absorbShipping()
	closeQuietly(h.primary)

	sys, err := els.Open(h.cfg.PrimaryDir)
	if err != nil {
		h.violation(fmt.Sprintf("round %d: primary recovery failed: %v", round, err))
		return fmt.Errorf("chaos: primary recovery: %w", err)
	}
	h.primary = sys
	rv := sys.CatalogVersion()
	if rv < acked || rv > acked+1 {
		h.violation(fmt.Sprintf("round %d: primary recovered version %d outside [%d, %d]",
			round, rv, acked, acked+1))
	}
	if got, err := sys.TableCard("m0"); cardErr == nil && (err != nil || got < ackedCard) {
		h.violation(fmt.Sprintf("round %d: primary recovery regressed m0 below its acknowledged card", round))
	}
	h.logEvent(map[string]any{"event": "primary-recovered", "round": round,
		"version": rv, "ahead": rv - acked})
	for i, rep := range h.reps {
		if err := sys.AttachReplica(rep); err != nil {
			h.violation(fmt.Sprintf("round %d: re-attaching replica %s after primary crash: %v",
				round, h.ids[i], err))
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
func (h *replHarness) settleAndAudit(round int, divergeFired bool, victim int) error {
	if err := h.settle(fmt.Sprintf("round %d", round)); err != nil {
		return err
	}
	detected := 0
	healed := false
	down := make(map[string]bool)
	for _, f := range h.primary.ReplicationStats().Followers {
		if f.Down {
			down[f.ID] = true
		}
	}
	for i, rep := range h.reps {
		switch {
		case down[h.ids[i]]:
			h.mu.Lock()
			h.report.FollowerCrashes++
			h.mu.Unlock()
			if err := h.reopenFollower(round, i); err != nil {
				return err
			}
			healed = true
		case rep.Quarantined() != nil:
			q := rep.Quarantined()
			if !errors.Is(q, els.ErrDiverged) {
				h.violation(fmt.Sprintf("round %d: replica %s quarantine outside taxonomy: %v",
					round, h.ids[i], q))
			}
			var dv *els.DivergenceError
			if !errors.As(q, &dv) {
				h.violation(fmt.Sprintf("round %d: replica %s quarantine carries no DivergenceError: %v",
					round, h.ids[i], q))
			}
			detected++
			h.mu.Lock()
			h.report.DivergencesDetected++
			h.mu.Unlock()
			h.logEvent(map[string]any{"event": "quarantine", "round": round, "replica": h.ids[i]})
			// The heal path: re-attaching is the operator acknowledging the
			// divergence; it re-certifies the replica from a full frame.
			if err := h.primary.AttachReplica(rep); err != nil {
				h.violation(fmt.Sprintf("round %d: healing replica %s: %v", round, h.ids[i], err))
			}
			h.mu.Lock()
			h.report.CatchUps++
			h.mu.Unlock()
			healed = true
		default:
			h.auditDigest(round, i)
		}
	}
	if divergeFired && detected == 0 {
		h.violation(fmt.Sprintf("round %d: injected divergence on %s went undetected",
			round, h.ids[victim]))
	}
	if !healed {
		return nil
	}
	// Healed replicas must catch back up and then pass the same audit.
	if err := h.awaitHeal(fmt.Sprintf("round %d heal", round)); err != nil {
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
func (h *replHarness) awaitHeal(phase string) error {
	if err := h.settle(phase); err != nil {
		return err
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		target := h.primary.CatalogVersion()
		ok := true
		for _, rep := range h.reps {
			if rep.Quarantined() != nil || rep.CatalogVersion() < target {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			h.violation(fmt.Sprintf("%s: healed fleet failed to catch up", phase))
			return fmt.Errorf("chaos: %s: healed fleet failed to catch up", phase)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// auditDigest compares one settled follower's catalog identity against
// the primary's. The fleet is quiesced, so any mismatch is a breach: a
// version short of the primary's lost an acknowledged mutation, and a
// differing digest at the same version is a divergence the audit missed.
func (h *replHarness) auditDigest(round, i int) {
	pver, pdig, err := h.primary.CatalogDigest()
	if err != nil {
		h.violation(fmt.Sprintf("round %d: primary digest failed: %v", round, err))
		return
	}
	fver, fdig, err := h.reps[i].CatalogDigest()
	switch {
	case err != nil:
		h.violation(fmt.Sprintf("round %d: replica %s digest failed: %v", round, h.ids[i], err))
	case fver != pver:
		h.violation(fmt.Sprintf("round %d: replica %s settled at version %d, primary at %d: acknowledged mutations missing",
			round, h.ids[i], fver, pver))
	case fdig != pdig:
		h.violation(fmt.Sprintf("round %d: undetected divergence: replica %s digest %s != primary %s at version %d",
			round, h.ids[i], fdig, pdig, pver))
	}
}

// reopenFollower recovers a follower whose own disk was killed: close it,
// reopen its directory (the follower recovers from its own WAL and
// checkpoints exactly like a primary), and re-attach.
func (h *replHarness) reopenFollower(round, i int) error {
	prev := h.reps[i].CatalogVersion()
	//ctxflow:allow end-of-round reopen runs after every caller context is gone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	h.reps[i].Close(ctx)
	cancel()
	rep, err := els.OpenReplica(h.cfg.ReplicaDirs[i])
	if err != nil {
		h.violation(fmt.Sprintf("round %d: replica %s recovery failed: %v", round, h.ids[i], err))
		return fmt.Errorf("chaos: replica recovery: %w", err)
	}
	if rv := rep.CatalogVersion(); rv > prev+1 {
		h.violation(fmt.Sprintf("round %d: replica %s recovered version %d beyond anything it applied (%d)",
			round, h.ids[i], rv, prev))
	}
	rep.SetLimits(els.Limits{MaxReplicaLag: h.cfg.MaxReplicaLag})
	if err := h.primary.AttachReplica(rep); err != nil {
		h.violation(fmt.Sprintf("round %d: re-attaching recovered replica %s: %v", round, h.ids[i], err))
	}
	h.reps[i] = rep
	h.mu.Lock()
	h.report.CatchUps++
	h.mu.Unlock()
	h.logEvent(map[string]any{"event": "follower-recovered", "round": round,
		"replica": h.ids[i], "version": rep.CatalogVersion()})
	return nil
}

// staleAudit is the quiesced staleness probe: wedge one replica's link
// (frames drop, announcements still flow — lag stays honest), push the
// primary past MaxReplicaLag, and demand the rejection the contract
// promises. Then release the link, wait for catch-up, and demand a
// successful read bit-identical to the primary's at the same version.
func (h *replHarness) staleAudit(round, victim int) error {
	rep, id := h.reps[victim], h.ids[victim]
	link := replica.PointShip + ":" + id
	faultinject.Enable(link, faultinject.Fault{
		Payload: faultinject.LinkFault{Drop: true, CorruptBit: -1, Truncate: -1},
	})
	for i := 0; i < h.cfg.MaxReplicaLag+2; i++ {
		if err := h.mutate(); err != nil {
			h.violation(fmt.Sprintf("round %d: stale-audit mutation failed: %v", round, err))
			faultinject.Disable(link)
			return nil
		}
	}
	lag := rep.Lag()
	_, err := rep.Estimate(replProbe, els.AlgorithmELS)
	if !errors.Is(err, els.ErrStaleReplica) {
		h.violation(fmt.Sprintf("round %d: read on %s at lag %d (bound %d) not rejected with ErrStaleReplica: %v",
			round, id, lag, h.cfg.MaxReplicaLag, err))
	} else {
		var sre *els.StaleReplicaError
		if !errors.As(err, &sre) {
			h.violation(fmt.Sprintf("round %d: stale rejection carries no StaleReplicaError: %v", round, err))
		} else if sre.Lag <= uint64(h.cfg.MaxReplicaLag) {
			h.violation(fmt.Sprintf("round %d: stale rejection reports lag %d within the bound %d",
				round, sre.Lag, sre.MaxLag))
		}
	}
	faultinject.Disable(link)
	if err := h.settle(fmt.Sprintf("round %d stale-audit", round)); err != nil {
		return err
	}
	want, err := h.primary.Estimate(replProbe, els.AlgorithmELS)
	if err != nil {
		h.violation(fmt.Sprintf("round %d: primary probe failed: %v", round, err))
		return nil
	}
	got, err := rep.Estimate(replProbe, els.AlgorithmELS)
	switch {
	case err != nil:
		h.violation(fmt.Sprintf("round %d: caught-up replica %s still rejects reads: %v", round, id, err))
	case got.CatalogVersion != want.CatalogVersion:
		h.violation(fmt.Sprintf("round %d: caught-up replica %s pinned version %d, primary %d",
			round, id, got.CatalogVersion, want.CatalogVersion))
	case math.Float64bits(got.FinalSize) != math.Float64bits(want.FinalSize):
		h.violation(fmt.Sprintf("round %d: replica %s estimate not bit-identical to primary at version %d: %x != %x",
			round, id, want.CatalogVersion, math.Float64bits(got.FinalSize), math.Float64bits(want.FinalSize)))
	}
	h.mu.Lock()
	h.report.StaleAudits++
	h.mu.Unlock()
	return nil
}

// settle drives every live follower to the primary's current version.
func (h *replHarness) settle(phase string) error {
	//ctxflow:allow harness barrier; no caller context exists
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := h.primary.WaitForReplicas(ctx); err != nil {
		h.violation(fmt.Sprintf("%s: fleet failed to catch up: %v", phase, err))
		return fmt.Errorf("chaos: %s: fleet failed to catch up: %w", phase, err)
	}
	return nil
}

// finalAudit records the soak's settled identity: the primary's version
// and digest plus every follower's digest (all must agree).
func (h *replHarness) finalAudit() {
	pver, pdig, err := h.primary.CatalogDigest()
	if err != nil {
		h.violation(fmt.Sprintf("final: primary digest failed: %v", err))
		return
	}
	h.report.FinalVersion = pver
	h.report.Digest = pdig
	h.report.FollowerDigests = make(map[string]string, len(h.reps))
	for i := range h.reps {
		h.auditDigest(h.cfg.Rounds, i)
		if _, fdig, err := h.reps[i].CatalogDigest(); err == nil {
			h.report.FollowerDigests[h.ids[i]] = fdig
		}
	}
	h.absorbShipping()
}

// absorbShipping folds the current primary's shipping counters into the
// report; a primary crash resets the live counters, so they are absorbed
// before every reopen and once at the end.
func (h *replHarness) absorbShipping() {
	st := h.primary.ReplicationStats()
	h.mu.Lock()
	h.report.FramesShipped += st.FramesShipped
	h.report.Resyncs += st.Resyncs
	h.report.QueueDrops += st.QueueDrops
	h.report.LinkDrops += st.LinkDrops
	h.mu.Unlock()
}

// shutdown closes the fleet and the primary.
func (h *replHarness) shutdown() {
	for _, rep := range h.reps {
		if rep == nil {
			continue
		}
		//ctxflow:allow end-of-soak drain runs after every caller context is gone
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		rep.Close(ctx)
		cancel()
	}
	closeQuietly(h.primary)
}
