// Package chaos storms the system and audits its contracts afterwards.
// Six storms share one Config, one Report and one ledger: Run and
// RunCacheSoak drive a System in process, RunServer and RunMemoryPressure
// drive a multi-tenant wire server, and RunCrash and RunReplication drive
// durable catalogs through simulated process kills and a replica fleet.
// The contracts, each with the storms that audit it:
//
//   - Typed errors only: every failure a storm observes belongs to the
//     public taxonomy (all six).
//   - No torn reads: an estimate equals the cardinality its pinned catalog
//     version published (Run, RunCacheSoak, RunServer), and a repeated
//     statement at a quiesced version is a cache hit identical to the cold
//     estimate (RunCacheSoak).
//   - Tenant isolation: an estimate never comes from another tenant's
//     catalog, and a quarantined tenant's neighbours keep serving
//     (RunServer); a memory hog's neighbours are never shed by the pool and
//     never partition a join (RunMemoryPressure).
//   - Typed sheds: an overload or pool shed is flagged retryable and carries
//     a Retry-After hint, and a request landing mid-drain gets a typed
//     refusal (RunServer, RunMemoryPressure).
//   - Clean drains: after Close or Shutdown nothing is in flight or
//     waiting, no connection survives and the memory pool holds no
//     reservation (Run, RunCacheSoak, RunServer, RunMemoryPressure).
//   - No lost acknowledged writes: recovery lands on the last acknowledged
//     version V or on V+1, never regresses an acknowledged card, and
//     reproduces estimates bit for bit at V (RunCrash; RunReplication for a
//     killed primary; RunServer across a restart, by digest).
//   - Replicas are exact: a settled follower's catalog digest equals the
//     primary's, every injected divergence is detected and quarantined, and
//     a read past the lag bound is rejected with ErrStaleReplica
//     (RunReplication).
//
// Everything is seeded, so a failing storm replays from its seed (modulo
// goroutine scheduling; RunReplication and a Deterministic RunCrash replay
// exactly).
package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/executor"
	"repro/internal/faultinject"
	"repro/internal/querygen"
)

// Config shapes one storm. Every storm takes the same Config and reads the
// fields it needs; a zero field takes the storm's default, sized for a CI
// smoke run.
type Config struct {
	// Seed drives every random decision in the storm.
	Seed int64
	// Dir is the durable root the four storms past the in-process ones
	// need: the wire storms' tenant data root, the crash soak's catalog
	// directory, and the parent of the replication soak's primary/ and
	// r0/ … directories (a replica's ID is its directory's base name).
	Dir string
	// Workers is the size of the client fleet: query workers in process
	// (default 8), clients per tenant on the wire (default 4), and the hog
	// tenant's clients under memory pressure (default 6).
	Workers int
	// Ops is how many operations each worker issues (defaults: 50 in
	// process, 30 on the wire, 12 under memory pressure), or the mutations
	// per mutator and round of the crash soak (25) and per round of the
	// replication soak (20).
	Ops int
	// Rounds is the number of crash/recover cycles (default 15) or of
	// replication fault/settle/audit cycles (default 10; fault kinds rotate,
	// so 9 or more exercise every kind).
	Rounds int
	// Replicas is the replication soak's follower count (default 2).
	Replicas int
	// Deterministic trades the crash soak's concurrency for exact
	// replayability: a single mutator arms each round's kill itself before a
	// seed-chosen mutation (instead of a timer racing a fleet), no readers or
	// checkpointer run, and two soaks from the same seed therefore recover
	// byte-identical catalogs.
	Deterministic bool
	// Retry and Breaker, if set, are installed on the in-process storm's
	// system, so it exercises the retry loop and breaker trips against
	// injected faults.
	Retry   els.RetryPolicy
	Breaker els.BreakerPolicy
	// LogW, if non-nil, receives one JSON line per event (operations,
	// faults armed, catalog mutations, violations): the artifact to attach
	// to a CI run for post-mortem debugging.
	LogW io.Writer
}

// Report is the audited outcome of a storm. The error a storm returns
// reports a harness malfunction (seed data failed to load, a server did
// not start); contract breaches are Violations.
type Report struct {
	// Ops counts the operations classified by the taxonomy; Succeeded the
	// ones that returned no error; ErrorsByClass the failures by wire code.
	Ops, Succeeded int
	ErrorsByClass  map[string]int
	// Violations lists every contract breach. A clean storm has none.
	Violations []string
	// Counts holds the storm's named tallies: versions published and
	// observations audited, acknowledged mutations, rounds, crashes,
	// detected divergences, sheds, and so on.
	Counts map[string]int
	// Digests maps a primary, replica or tenant ID to the catalog digest it
	// ended at, and FinalVersion is the durable soaks' final catalog
	// version: the artifacts CI archives to show that two runs of one seed
	// recovered identical catalogs.
	Digests      map[string]string
	FinalVersion uint64
	// Stats is the in-process system's counters after Close. The torn-read
	// audit doubles as the cache's version-pinning contract: a hit served
	// from any version other than the estimate's pinned CatalogVersion
	// surfaces as a torn read.
	Stats els.Stats
}

// versionProbeSQL estimates the mutating table with no predicates, so the
// estimate must equal the cardinality published for the pinned version.
const versionProbeSQL = "SELECT COUNT(*) FROM V"

var stormSQL = []string{
	"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5",
	"SELECT COUNT(*) FROM R WHERE R.b = 3",
	"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND S.c = 2",
}

// cachePool is the statement pool the cache soak re-issues. It includes
// the version probe, so the torn-read audit keeps collecting data points
// while the cache is being hammered.
var cachePool = append([]string{versionProbeSQL}, stormSQL...)

// loadTable loads n rows of (i mod dom, i mod 7) into table name.
func loadTable(sys *els.System, name string, cols []string, n, dom int) error {
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = []int64{int64(i % dom), int64(i % 7)}
	}
	return sys.LoadTable(name, cols, rows)
}

// seedRS loads the join pair the storms query: R(a, b) with r rows and
// S(a, c) with s rows, a ranging over ten values.
func seedRS(sys *els.System, r, s int) error {
	if err := loadTable(sys, "R", []string{"a", "b"}, r, 10); err != nil {
		return err
	}
	return loadTable(sys, "S", []string{"a", "c"}, s, 10)
}

// observation is one (pinned version, estimate) data point to audit.
type observation struct {
	version uint64
	size    float64
}

// storm carries an in-process storm's shared state.
type storm struct {
	ledger
	cfg Config
	sys *els.System

	// Guarded by ledger.mu.
	versionCard  map[uint64]float64 // version -> published card of V
	observations []observation
}

// Run storms the serving layer in process: a worker fleet issues
// estimates, executed queries, explains and deadline-bounded queries while
// one goroutine republishes the catalog and another arms error, panic and
// latency faults at the estimator's and executor's probe points. It audits
// typed errors, torn reads and a clean drain.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	h, err := newStorm(cfg)
	if err != nil {
		return nil, err
	}
	h.fleet(h.cfg.Workers, func(i int) { h.worker(ctx, i) }, h.mutator, h.faulter)
	faultinject.Reset()
	return h.finish(ctx), nil
}

// RunCacheSoak storms the plan cache: a worker fleet re-issues a small,
// Zipf-skewed pool of statements while the mutator keeps publishing new
// catalog versions mid-flight, so hits, misses, invalidations, and
// version bumps race continuously. No faults are injected — the soak
// isolates the cache's consistency contract from fault recovery.
//
// The audit is two-phase. During the storm, the torn-read contract does
// the work: every estimate must equal the statistics its pinned
// CatalogVersion published, so a cache entry served across a version
// boundary — stale plan, stale estimate, anything — surfaces as a
// violation. After the storm quiesces (mutator stopped), the warm path is
// proved deterministically: the same statement estimated twice must count
// a cache hit and return a bit-identical estimate.
func RunCacheSoak(ctx context.Context, cfg Config) (*Report, error) {
	h, err := newStorm(cfg)
	if err != nil {
		return nil, err
	}
	h.fleet(h.cfg.Workers, h.cacheWorker, h.mutator)
	h.warmAudit()
	return h.finish(ctx), nil
}

// newStorm seeds an in-process system: the static join pair, the first
// version of the mutating table V, and admission limits tight enough
// (4 slots for 8 workers) to keep the queue contended.
func newStorm(cfg Config) (*storm, error) {
	cfg.Workers = or(cfg.Workers, 8)
	cfg.Ops = or(cfg.Ops, 50)
	h := &storm{ledger: ledger{logW: cfg.LogW}, cfg: cfg, sys: els.New(), versionCard: make(map[uint64]float64)}
	if err := seedRS(h.sys, 200, 300); err != nil {
		return nil, fmt.Errorf("chaos: seeding R and S: %w", err)
	}
	if err := h.sys.DeclareStats("V", 1000, map[string]float64{"x": 10}); err != nil {
		return nil, fmt.Errorf("chaos: seeding V: %w", err)
	}
	h.versionCard[h.sys.CatalogVersion()] = 1000
	h.sys.SetLimits(els.Limits{MaxConcurrent: 4, MaxQueue: 8, QueueTimeout: 50 * time.Millisecond})
	h.sys.SetRetryPolicy(cfg.Retry) // the zero policies are off
	h.sys.SetBreaker(cfg.Breaker)
	return h, nil
}

// mutator republishes V's statistics with a version-correlated cardinality
// until told to stop. It is the only mutator, so reading the catalog
// version right after a successful publish identifies the version that
// publish created.
func (h *storm) mutator(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 1))
	for i := 1; !isClosed(stop); i++ {
		card := float64(1000 + i)
		if err := h.sys.DeclareStats("V", card, map[string]float64{"x": 10}); err != nil {
			h.violationf("mutator: DeclareStats failed mid-storm: %v", err)
			return
		}
		v := h.sys.CatalogVersion()
		h.mu.Lock()
		h.versionCard[v] = card
		h.mu.Unlock()
		h.logEvent(map[string]any{"event": "publish", "version": v, "card": card})
		pause(stop, time.Duration(rng.Intn(3)+1)*time.Millisecond)
	}
}

// faulter keeps arming random probe points with random faults: taxonomy
// errors, panics, and latency. Fault errors always wrap ErrInternal so the
// taxonomy audit can tell injected failures from leaks.
func (h *storm) faulter(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 2))
	points := []string{
		cardest.PointNewQuery,
		executor.PointScan,
		executor.PointJoin,
	}
	for !isClosed(stop) {
		point := points[rng.Intn(len(points))]
		f := faultinject.Fault{Times: rng.Intn(3) + 1}
		kind := ""
		switch rng.Intn(3) {
		case 0:
			kind = "error"
			f.Err = fmt.Errorf("%w: chaos: injected fault", els.ErrInternal)
		case 1:
			kind = "panic"
			f.PanicValue = "chaos: injected panic"
		case 2:
			kind = "latency"
			f.Delay = time.Duration(rng.Intn(2)+1) * time.Millisecond
		}
		faultinject.Enable(point, f)
		h.logEvent(map[string]any{"event": "fault", "point": point, "kind": kind, "times": f.Times})
		pause(stop, time.Duration(rng.Intn(4)+1)*time.Millisecond)
	}
}

// observe records an estimate of the version probe for the torn-read audit.
func (h *storm) observe(est *els.Estimate) {
	h.mu.Lock()
	h.observations = append(h.observations, observation{est.CatalogVersion, est.FinalSize})
	h.mu.Unlock()
}

// worker issues Ops random operations against the system, classifying
// every outcome.
func (h *storm) worker(ctx context.Context, id int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 100 + int64(id)))
	for i := 0; i < h.cfg.Ops; i++ {
		var err error
		var opName string
		switch rng.Intn(5) {
		case 0:
			opName = "estimate-v"
			var est *els.Estimate
			if est, err = h.sys.Estimate(versionProbeSQL, els.AlgorithmELS); err == nil {
				h.observe(est)
			}
		case 1:
			opName = "query"
			_, err = h.sys.Query(stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmELS)
		case 2:
			opName = "explain"
			_, err = h.sys.Explain(stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmELS)
		case 3:
			opName = "estimate"
			_, err = h.sys.Estimate(stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmSM)
		case 4:
			opName = "query-deadline"
			dctx, cancel := context.WithTimeout(ctx, time.Duration(rng.Intn(10)+1)*time.Millisecond)
			_, err = h.sys.QueryContext(dctx, stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmELS)
			cancel()
		}
		h.record(fmt.Sprintf("worker %d", id), opName, err)
	}
}

// cacheWorker re-issues statements from the pool on a Zipf schedule, so a
// few statements dominate and re-hit the cache across version bumps.
func (h *storm) cacheWorker(id int) {
	schedule := querygen.RepeatSchedule(h.cfg.Seed+100+int64(id), len(cachePool), h.cfg.Ops, 1.5)
	var pinned uint64
	for i, pick := range schedule {
		if i == len(schedule)/2 {
			// Halfway, wait (a second at most) for the mutator to publish past
			// the last version this worker pinned, so its write to V retires
			// the V entries cached however fast the cache serves the rest.
			for deadline := time.Now().Add(time.Second); h.sys.CatalogVersion() <= pinned && time.Now().Before(deadline); {
				time.Sleep(100 * time.Microsecond)
			}
		}
		sql := cachePool[pick]
		// Alternate algorithms occasionally: the algorithm is part of the
		// cache key, so the same SQL under ELS and SM must never share an
		// entry.
		algo := els.AlgorithmELS
		if i%7 == 3 {
			algo = els.AlgorithmSM
		}
		est, err := h.sys.Estimate(sql, algo)
		if err == nil {
			pinned = est.CatalogVersion
		}
		if err == nil && sql == versionProbeSQL && algo == els.AlgorithmELS {
			h.observe(est)
		}
		h.record(fmt.Sprintf("worker %d", id), "estimate-cached", err)
	}
}

// warmAudit proves the quiesced warm path: with the mutator stopped, the
// same statement estimated twice must produce a cache hit and an
// estimate identical to the first, field for field.
func (h *storm) warmAudit() {
	before := h.sys.Stats().Cache
	first, err := h.sys.Estimate(versionProbeSQL, els.AlgorithmELS)
	if err != nil {
		h.violationf("warm audit: cold estimate failed: %v", err)
		return
	}
	second, err := h.sys.Estimate(versionProbeSQL, els.AlgorithmELS)
	if err != nil {
		h.violationf("warm audit: warm estimate failed: %v", err)
		return
	}
	if h.sys.Stats().Cache.Hits == before.Hits {
		h.violationf("warm audit: repeating a statement at a quiesced version produced no cache hit")
	}
	if !reflect.DeepEqual(first, second) {
		h.violationf("warm audit: cached estimate differs from cold one:\n  cold %+v\n  warm %+v", first, second)
	}
}

// finish drains the system, checks the end-of-storm contracts and returns
// the report.
func (h *storm) finish(ctx context.Context) *Report {
	if err := within(ctx, h.sys.Close); err != nil {
		h.violationf("Close did not drain cleanly: %v", err)
	}
	st := h.sys.Stats()
	if rs := st.Robustness; rs.InFlight != 0 || rs.Waiting != 0 {
		h.violationf("slot accounting drift after drain: in-flight %d, waiting %d", rs.InFlight, rs.Waiting)
	}
	// Every storm goroutine has exited, so the observations are settled.
	for _, obs := range h.observations {
		card, ok := h.versionCard[obs.version]
		if !ok {
			h.violationf("estimate pinned catalog version %d, which was never published", obs.version)
		} else if obs.size != card {
			h.violationf("torn read: estimate %g under catalog version %d, which published card %g",
				obs.size, obs.version, card)
		}
	}
	h.count("versions", len(h.versionCard))
	h.count("observations", len(h.observations))
	rep := h.report()
	rep.Stats = st
	return rep
}
