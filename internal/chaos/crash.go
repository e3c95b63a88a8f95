package chaos

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	els "repro"
	"repro/internal/durable"
	"repro/internal/faultinject"
)

// soak is what the two durable soaks share: the ledger, the config, and
// the strictly increasing card sequence every mutated table follows.
type soak struct {
	ledger
	cfg Config

	// Guarded by ledger.mu.
	maxTried map[string]float64 // highest card ever attempted per table
}

func newSoak(cfg Config) soak {
	return soak{ledger: ledger{logW: cfg.LogW}, cfg: cfg, maxTried: make(map[string]float64)}
}

// declareNext republishes table with a card one past the highest ever
// attempted, counting the acknowledgement. The monotonic sequence is what
// the recovery audits lean on, and what makes a deterministic soak's final
// digest a function of its seed.
func (s *soak) declareNext(sys *els.System, table string) error {
	s.mu.Lock()
	card := s.maxTried[table] + 1
	s.maxTried[table] = card
	s.mu.Unlock()
	err := sys.DeclareStats(table, card, map[string]float64{"x": 10})
	if err == nil {
		s.count("acked", 1)
	}
	return err
}

// kill is one simulated process kill at a durable probe point: the
// faulted write lands ShortWrite bytes (-1: all of it) and the process
// dies.
func kill(rng *rand.Rand) faultinject.Fault {
	return faultinject.Fault{Times: 1, Payload: faultinject.DiskFault{ShortWrite: rng.Intn(60) - 10}}
}

// recoveredIn checks a recovered catalog version against the acknowledge
// contract: the last acknowledged version lo, or at most hi when the
// killed mutation's record reached the disk intact.
func (s *soak) recoveredIn(round int, who string, rv, lo, hi uint64) bool {
	if rv < lo || rv > hi {
		s.violationf("round %d: %s recovered version %d outside [%d, %d]", round, who, rv, lo, hi)
		return false
	}
	return true
}

// mutatorTables are the crash soak's mutator fleet: each mutator owns one
// table. A Deterministic soak runs the first alone.
var mutatorTables = []string{"m0", "m1", "m2"}

// crashPoints are the durable layer's probe points, each one instant a
// real process can die at: mid-WAL-record, pre-fsync, mid-checkpoint-write,
// pre-rename, and post-rename-pre-truncate.
var crashPoints = []string{
	durable.PointWALAppend,
	durable.PointWALSync,
	durable.PointCheckpointWrite,
	durable.PointCheckpointRename,
	durable.PointWALTruncate,
}

// crashState is what the harness observes on the frozen (or cleanly
// stopped) system just before it is closed — the ground truth the next
// recovery is audited against.
type crashState struct {
	version  uint64             // last published (acknowledged) version
	cards    map[string]float64 // acknowledged card per mutator table
	probes   map[string]uint64  // probe SQL -> Float64bits of the estimate at version
	poisoned bool               // whether an injected crash landed
}

// crashSoak carries one crash soak's state across rounds.
type crashSoak struct {
	soak
	tables []string // m0, m1, …: one per mutator
}

// RunCrash executes one crash-recovery soak in cfg.Dir: a mutator fleet
// hammers a durable system while a faulter arms simulated process kills
// at the durable layer's probe points; every kill is followed by a
// recovery (els.Open on the same directory) audited against the
// acknowledge contract. A round whose mutations (Ops per mutator) run out
// before a kill lands shuts down cleanly, which soaks the clean-recovery
// path too.
func RunCrash(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, errors.New("chaos: RunCrash needs a Dir")
	}
	cfg.Rounds = or(cfg.Rounds, 15)
	cfg.Ops = or(cfg.Ops, 25)
	h := &crashSoak{soak: newSoak(cfg), tables: mutatorTables}
	if cfg.Deterministic {
		h.tables = mutatorTables[:1]
	}

	var prev *crashState
	rng := rand.New(rand.NewSource(cfg.Seed))
	for round := 0; round < cfg.Rounds; round++ {
		if prev = h.round(ctx, round, rng.Int63(), prev); prev == nil {
			break // recovery violation already recorded; cannot continue
		}
		h.count("rounds", 1)
	}
	faultinject.Reset()

	// Final audit: one last recovery of the directory, digested.
	var version uint64
	var digest string
	sys, err := els.Open(cfg.Dir)
	if err != nil {
		h.violationf("final recovery failed: %v", err)
	} else {
		if version, digest, err = sys.CatalogDigest(); err != nil {
			h.violationf("final digest failed: %v", err)
		}
		within(ctx, sys.Close)
	}
	rep := h.report()
	rep.FinalVersion, rep.Digests = version, map[string]string{"primary": digest}
	return rep, nil
}

// round opens the directory (auditing recovery against prev), runs one
// mutator storm until an injected crash lands or the mutation budget runs
// out, captures the pre-shutdown state, and closes. It returns nil when
// the directory cannot be recovered or seeded.
func (h *crashSoak) round(ctx context.Context, round int, seed int64, prev *crashState) *crashState {
	sys, err := els.Open(h.cfg.Dir)
	if err != nil {
		h.violationf("round %d: recovery failed: %v", round, err)
		return nil
	}
	// Crash rounds close poisoned systems, where a Close error is expected.
	defer within(ctx, sys.Close)
	h.auditRecovery(round, sys, prev)

	// Seed any mutator table recovery did not bring back (only the first
	// round on a fresh directory), so the readers' probes always bind.
	for _, table := range h.tables {
		if _, err := sys.TableCard(table); err == nil {
			continue
		}
		if err := h.declareNext(sys, table); err != nil {
			h.violationf("round %d: seeding %s failed: %v", round, table, err)
			return nil
		}
	}

	rng := rand.New(rand.NewSource(seed))
	// Vary the compaction pressure: some rounds auto-checkpoint aggressively,
	// some never, so crashes land on long and short WAL suffixes alike.
	sys.SetLimits(els.Limits{CheckpointEvery: []int{0, 2, 5}[rng.Intn(3)]})

	// Each round injects at most one simulated kill, at a random durable
	// probe point. In the concurrent storm a timer arms it after a random
	// delay; in deterministic mode the single mutator arms it itself right
	// before a seed-chosen mutation.
	point := crashPoints[rng.Intn(len(crashPoints))]
	fault := kill(rng)
	delay := time.Duration(rng.Intn(8)) * time.Millisecond
	detCrashAt := rng.Intn(h.cfg.Ops)
	arm := func() {
		faultinject.Enable(point, fault)
		h.logEvent(map[string]any{"event": "arm", "round": round, "point": point, "fault": fault.Payload})
	}

	crashed := make(chan struct{})
	var crashOnce sync.Once
	noteCrash := func() { crashOnce.Do(func() { close(crashed) }) }
	// over reports whether the round has ended: a crash landed, or every
	// mutator ran out of mutations and the fleet closed stop.
	over := func(stop <-chan struct{}) bool { return isClosed(crashed) || isClosed(stop) }

	// The mutator fleet: each mutator owns one table and republishes it
	// with a strictly increasing cardinality — the monotonic sequence the
	// recovery audit leans on.
	mutator := func(m int) {
		r := rand.New(rand.NewSource(seed + 200 + int64(m)))
		for i := 0; i < h.cfg.Ops && !isClosed(crashed); i++ {
			if h.cfg.Deterministic && i == detCrashAt {
				arm()
			}
			if err := h.declareNext(sys, h.tables[m]); err != nil {
				if errors.Is(err, els.ErrDurability) {
					h.logEvent(map[string]any{"event": "crash", "round": round, "table": h.tables[m]})
				} else {
					h.violationf("round %d: mutation error outside taxonomy: %v", round, err)
				}
				noteCrash()
				return
			}
			if !h.cfg.Deterministic && r.Intn(4) == 0 {
				pause(crashed, time.Millisecond)
			}
		}
	}

	var background []func(stop <-chan struct{})
	if !h.cfg.Deterministic {
		background = append(background, func(stop <-chan struct{}) {
			pause(stop, delay)
			if !over(stop) {
				arm()
			}
		}, func(stop <-chan struct{}) {
			// A checkpointer exercises explicit compaction so the checkpoint
			// crash points are reachable even in CheckpointEvery=0 rounds.
			r := rand.New(rand.NewSource(seed + 1))
			for {
				pause(stop, time.Duration(r.Intn(6)+2)*time.Millisecond)
				if over(stop) {
					return
				}
				if err := sys.Checkpoint(); err != nil {
					if !errors.Is(err, els.ErrDurability) {
						h.violationf("round %d: checkpoint error outside taxonomy: %v", round, err)
					}
					noteCrash()
					return
				}
			}
		})
		// Readers estimate continuously; reads must keep working through
		// mutation traffic and even on a frozen (post-crash) catalog.
		probes := h.probeSQL()
		for r := 0; r < 2; r++ {
			background = append(background, func(stop <-chan struct{}) {
				rg := rand.New(rand.NewSource(seed + 100 + int64(r)))
				for !isClosed(stop) {
					if _, err := sys.Estimate(probes[rg.Intn(len(probes))], els.AlgorithmELS); err != nil {
						h.violationf("round %d: read failed mid-storm: %v", round, err)
						return
					}
				}
			})
		}
	}
	h.fleet(len(h.tables), mutator, background...)
	faultinject.Reset() // disarm a fault that never fired

	state := h.capture(round, sys)
	if state.poisoned {
		h.count("crashes", 1)
	} else {
		h.count("clean_shutdowns", 1)
	}
	return state
}

// probeSQL returns the estimate probes replayed after recovery for the
// bit-identity audit. They depend on every mutator table's statistics.
func (h *crashSoak) probeSQL() []string {
	var probes []string
	for _, table := range h.tables {
		probes = append(probes, fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE x < 5", table))
	}
	if len(h.tables) >= 2 {
		probes = append(probes, "SELECT COUNT(*) FROM m0, m1 WHERE m0.x = m1.x")
	}
	return probes
}

// capture records the frozen system's ground truth: the last published
// version, every table's acknowledged card, and the probe estimates that
// recovery must reproduce bit-for-bit at the same version. Reads keep
// working after a durability freeze, which is itself part of the contract.
func (h *crashSoak) capture(round int, sys *els.System) *crashState {
	st := &crashState{
		version:  sys.CatalogVersion(),
		cards:    make(map[string]float64),
		probes:   make(map[string]uint64),
		poisoned: sys.DurabilityStats().Poisoned != nil,
	}
	for _, table := range h.tables {
		if card, err := sys.TableCard(table); err == nil {
			st.cards[table] = card
		}
	}
	for _, sql := range h.probeSQL() {
		est, err := sys.Estimate(sql, els.AlgorithmELS)
		if err != nil {
			h.violationf("round %d: pre-shutdown probe failed: %v", round, err)
			continue
		}
		if est.CatalogVersion != st.version {
			h.violationf("round %d: pre-shutdown probe pinned version %d, catalog is at %d",
				round, est.CatalogVersion, st.version)
			continue
		}
		st.probes[sql] = math.Float64bits(est.FinalSize)
	}
	h.logEvent(map[string]any{"event": "shutdown", "round": round,
		"version": st.version, "poisoned": st.poisoned})
	return st
}

// auditRecovery checks a freshly recovered system against the state
// captured before the previous shutdown:
//
//   - the recovered version R is the last acknowledged version V, or V+1
//     when exactly the one in-flight record reached the disk intact before
//     the kill (publication is what acknowledges, but durability is what
//     survives) — never anything else, never partial;
//   - acknowledged cards never regress, and at most the single in-flight
//     table may differ from its acknowledged value, by exactly its one
//     attempted mutation;
//   - at R == V, every probe estimate is bit-identical to its pre-crash
//     value.
//
// No mutation has run since prev was captured, so maxTried still holds
// each table's highest attempted card.
func (h *crashSoak) auditRecovery(round int, sys *els.System, prev *crashState) {
	if sys.DurabilityStats().TornTailRecovered {
		h.count("torn_tails", 1)
	}
	if prev == nil {
		return
	}
	rv := sys.CatalogVersion()
	maxV := prev.version
	if prev.poisoned {
		maxV++ // the in-flight record may have survived
	}
	if !h.recoveredIn(round, "catalog", rv, prev.version, maxV) {
		return
	}
	h.logEvent(map[string]any{"event": "recovered", "round": round,
		"version": rv, "ahead": rv - prev.version})

	diffs := 0
	for table, acked := range prev.cards {
		got, err := sys.TableCard(table)
		if err != nil {
			h.violationf("round %d: acknowledged table %s vanished in recovery: %v", round, table, err)
			continue
		}
		if got == acked {
			continue
		}
		diffs++
		if got < acked {
			h.violationf("round %d: table %s regressed below its acknowledged card: %g < %g",
				round, table, got, acked)
		} else if got > h.maxTried[table] {
			h.violationf("round %d: table %s recovered card %g was never even attempted (max tried %g)",
				round, table, got, h.maxTried[table])
		}
	}
	if diffs > 1 {
		h.violationf("round %d: %d tables diverged from their acknowledged stats; at most one mutation can be in flight",
			round, diffs)
	}
	if rv > prev.version {
		h.count("recovered_ahead", 1)
		return
	}
	if diffs > 0 {
		h.violationf("round %d: recovered the acknowledged version %d but %d tables differ", round, rv, diffs)
	}
	for sql, wantBits := range prev.probes {
		est, err := sys.Estimate(sql, els.AlgorithmELS)
		if err != nil {
			h.violationf("round %d: post-recovery probe failed: %v", round, err)
			continue
		}
		h.count("bit_identical_checks", 1)
		if got := math.Float64bits(est.FinalSize); got != wantBits {
			h.violationf("round %d: estimate %q not bit-identical after recovery: %x != %x (version %d)",
				round, sql, got, wantBits, rv)
		}
	}
}
