// Package chaos is the soak harness for the serving layer: seeded worker
// fleets issue queries concurrently while one goroutine mutates the
// catalog and another arms fault-injection probes with errors, panics, and
// latency. Run drives the storm end to end and audits the system's
// contracts afterwards:
//
//   - every error belongs to the public taxonomy (no raw internal errors
//     escape),
//   - every estimate is consistent with exactly one published catalog
//     version (no torn reads across a concurrent statistics refresh),
//   - Close drains to zero in-flight queries with no admission-slot
//     accounting drift.
//
// Everything is seeded, so a failing storm replays deterministically
// (modulo goroutine scheduling) from its seed.
package chaos

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/executor"
	"repro/internal/faultinject"
	"repro/internal/workpool"
)

// Config shapes one chaos storm. The zero value is usable: Run fills in
// defaults sized for a CI smoke run.
type Config struct {
	// Seed drives every random decision in the storm.
	Seed int64
	// Workers is the number of concurrent query-issuing goroutines
	// (default 8).
	Workers int
	// OpsPerWorker is how many operations each worker issues (default 50).
	OpsPerWorker int
	// MaxConcurrent, MaxQueue, and QueueTimeout configure admission
	// control for the storm (defaults 4, 8, 50ms). MaxConcurrent < Workers
	// keeps the admission queue contended.
	MaxConcurrent, MaxQueue int
	QueueTimeout            time.Duration
	// Retry, if enabled, is installed on the system so the storm exercises
	// the retry loop against injected faults.
	Retry els.RetryPolicy
	// Breaker, if non-zero, is installed on the system so the storm
	// exercises breaker trips and half-open probes.
	Breaker els.BreakerPolicy
	// LogW, if non-nil, receives one JSON line per event (operations,
	// faults armed, catalog mutations) — the artifact to attach to a CI
	// run for post-mortem debugging.
	LogW io.Writer
}

// Report is the audited outcome of a storm.
type Report struct {
	// Ops is the total number of operations issued; Succeeded counts the
	// ones that returned no error.
	Ops, Succeeded int
	// ErrorsByClass histograms failures by taxonomy sentinel name.
	ErrorsByClass map[string]int
	// VersionsPublished is how many catalog versions the mutator published.
	VersionsPublished int
	// Observations counts version-consistency data points collected (each
	// one an estimate checked against the catalog version it claims).
	Observations int
	// Violations lists every contract breach the audit found. A clean
	// storm has none.
	Violations []string
	// Stats is the system's serving-layer counters after Close.
	Stats els.RobustnessStats
	// Cache is the plan-cache counters after Close. The torn-read audit
	// doubles as the cache's version-pinning contract: a hit that served a
	// plan or estimate from any version other than the estimate's pinned
	// CatalogVersion would surface as a torn read.
	Cache els.CacheStats
}

// Failed reports whether the storm breached any contract.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// versionProbeSQL estimates the mutating table with no predicates, so the
// estimate must equal the cardinality published for the pinned version.
const versionProbeSQL = "SELECT COUNT(*) FROM V"

var stormSQL = []string{
	"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5",
	"SELECT COUNT(*) FROM R WHERE R.b = 3",
	"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND S.c = 2",
}

// observation is one (pinned version, estimate) data point to audit.
type observation struct {
	version uint64
	size    float64
}

// harness carries the storm's shared state.
type harness struct {
	ledger
	cfg Config
	sys *els.System

	// Guarded by ledger.mu.
	versionCard  map[uint64]float64 // version -> published card of V
	observations []observation
}

// Run executes one storm and audits it. The returned error reports a
// harness malfunction (e.g. seed data failed to load); contract breaches
// are reported in Report.Violations, not as an error.
func Run(cfg Config) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 50
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 8
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 50 * time.Millisecond
	}

	h := newHarness(cfg)
	if err := h.seed(); err != nil {
		return nil, err
	}

	h.sys.SetLimits(els.Limits{
		MaxConcurrent: cfg.MaxConcurrent,
		MaxQueue:      cfg.MaxQueue,
		QueueTimeout:  cfg.QueueTimeout,
	})
	if cfg.Retry.Enabled() {
		h.sys.SetRetryPolicy(cfg.Retry)
	}
	if cfg.Breaker != (els.BreakerPolicy{}) {
		h.sys.SetBreaker(cfg.Breaker)
	}

	// All storm goroutines run under workpool.Go: a panic in a harness
	// goroutine is recovered into an error and recorded as a violation
	// instead of crashing the soak run.
	stop := make(chan struct{})
	onPanic := func(err error) {
		h.violation(fmt.Sprintf("chaos: background goroutine failed: %v", err))
	}
	var background sync.WaitGroup
	workpool.Go(&background, onPanic, func() error { h.mutator(stop); return nil })
	workpool.Go(&background, onPanic, func() error { h.faulter(stop); return nil })

	var workers sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		w := w
		workpool.Go(&workers, onPanic, func() error { h.worker(w); return nil })
	}
	workers.Wait()
	close(stop)
	background.Wait()
	faultinject.Reset()

	h.audit()
	return h.report(), nil
}

func newHarness(cfg Config) *harness {
	return &harness{
		ledger:      ledger{logW: cfg.LogW},
		cfg:         cfg,
		sys:         els.New(),
		versionCard: make(map[uint64]float64),
	}
}

// seed loads the static tables the storm queries and publishes the first
// version of the mutating table V.
func (h *harness) seed() error {
	mkRows := func(n, dom int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(i % dom), int64(i % 7)}
		}
		return rows
	}
	if err := h.sys.LoadTable("R", []string{"a", "b"}, mkRows(200, 10)); err != nil {
		return fmt.Errorf("chaos: seeding R: %w", err)
	}
	if err := h.sys.LoadTable("S", []string{"a", "c"}, mkRows(300, 10)); err != nil {
		return fmt.Errorf("chaos: seeding S: %w", err)
	}
	if err := h.sys.DeclareStats("V", 1000, map[string]float64{"x": 10}); err != nil {
		return fmt.Errorf("chaos: seeding V: %w", err)
	}
	h.versionCard[h.sys.CatalogVersion()] = 1000
	return nil
}

// mutator republishes V's statistics with a version-correlated cardinality
// until told to stop. It is the only mutator, so reading the catalog
// version right after a successful publish identifies the version that
// publish created.
func (h *harness) mutator(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 1))
	for i := 1; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		card := float64(1000 + i)
		if err := h.sys.DeclareStats("V", card, map[string]float64{"x": 10}); err != nil {
			h.violation(fmt.Sprintf("mutator: DeclareStats failed mid-storm: %v", err))
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
func (h *harness) faulter(stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 2))
	points := []string{
		cardest.PointNewQuery,
		executor.PointScan,
		executor.PointJoin,
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
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

// worker issues OpsPerWorker random operations against the system,
// classifying every outcome.
func (h *harness) worker(id int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 100 + int64(id)))
	for i := 0; i < h.cfg.OpsPerWorker; i++ {
		op := rng.Intn(5)
		var err error
		var opName string
		switch op {
		case 0:
			opName = "estimate-v"
			var est *els.Estimate
			est, err = h.sys.Estimate(versionProbeSQL, els.AlgorithmELS)
			if err == nil {
				h.mu.Lock()
				h.observations = append(h.observations, observation{est.CatalogVersion, est.FinalSize})
				h.mu.Unlock()
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
			//ctxflow:allow the storm deliberately issues root-context deadline ops
			ctx, cancel := context.WithTimeout(context.Background(),
				time.Duration(rng.Intn(10)+1)*time.Millisecond)
			_, err = h.sys.QueryContext(ctx, stormSQL[rng.Intn(len(stormSQL))], els.AlgorithmELS)
			cancel()
		}
		h.record(fmt.Sprintf("worker %d", id), opName, err)
	}
}

// audit drains the system and checks the end-of-storm contracts.
func (h *harness) audit() {
	//ctxflow:allow end-of-storm drain runs after every caller context is gone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := h.sys.Close(ctx); err != nil {
		h.violation(fmt.Sprintf("Close did not drain cleanly: %v", err))
	}
	st := h.sys.RobustnessStats()
	if st.InFlight != 0 || st.Waiting != 0 {
		h.violation(fmt.Sprintf("slot accounting drift after drain: in-flight %d, waiting %d",
			st.InFlight, st.Waiting))
	}
	// Every storm goroutine has exited, so the observations are settled.
	for _, obs := range h.observations {
		card, ok := h.versionCard[obs.version]
		if !ok {
			h.violation(fmt.Sprintf("estimate pinned catalog version %d, which was never published", obs.version))
			continue
		}
		if obs.size != card {
			h.violation(fmt.Sprintf("torn read: estimate %g under catalog version %d, which published card %g",
				obs.size, obs.version, card))
		}
	}
}

func (h *harness) report() *Report {
	h.mu.Lock()
	defer h.mu.Unlock()
	return &Report{
		Ops:               h.ops,
		Succeeded:         h.succeeded,
		ErrorsByClass:     h.errsByClass,
		VersionsPublished: len(h.versionCard),
		Observations:      len(h.observations),
		Violations:        h.violations,
		Stats:             h.sys.RobustnessStats(),
		Cache:             h.sys.CacheStats(),
	}
}
