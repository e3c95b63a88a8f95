package chaos

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	els "repro"
	"repro/internal/querygen"
	"repro/internal/workpool"
)

// cachePool is the statement pool the cache soak re-issues. It includes
// the version probe, so the torn-read audit keeps collecting data points
// while the cache is being hammered.
var cachePool = append([]string{versionProbeSQL}, stormSQL...)

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
func RunCacheSoak(cfg Config) (*Report, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 60
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 16
	}
	if cfg.QueueTimeout <= 0 {
		cfg.QueueTimeout = 200 * time.Millisecond
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

	stop := make(chan struct{})
	onPanic := func(err error) {
		h.violation(fmt.Sprintf("cache soak: background goroutine failed: %v", err))
	}
	var background sync.WaitGroup
	workpool.Go(&background, onPanic, func() error { h.mutator(stop); return nil })

	var workers sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		w := w
		workpool.Go(&workers, onPanic, func() error { h.cacheWorker(w); return nil })
	}
	workers.Wait()
	close(stop)
	background.Wait()

	h.warmAudit()
	h.audit()
	return h.report(), nil
}

// cacheWorker re-issues statements from the pool on a Zipf schedule, so a
// few statements dominate and re-hit the cache across version bumps.
func (h *harness) cacheWorker(id int) {
	schedule := querygen.RepeatSchedule(h.cfg.Seed+100+int64(id), len(cachePool), h.cfg.OpsPerWorker, 1.5)
	for i, pick := range schedule {
		sql := cachePool[pick]
		// Alternate algorithms occasionally: the algorithm is part of the
		// cache key, so the same SQL under ELS and SM must never share an
		// entry.
		algo := els.AlgorithmELS
		if i%7 == 3 {
			algo = els.AlgorithmSM
		}
		est, err := h.sys.Estimate(sql, algo)
		if err == nil && sql == versionProbeSQL && algo == els.AlgorithmELS {
			h.mu.Lock()
			h.observations = append(h.observations, observation{est.CatalogVersion, est.FinalSize})
			h.mu.Unlock()
		}
		h.record(fmt.Sprintf("worker %d", id), "estimate-cached", err)
	}
}

// warmAudit proves the quiesced warm path: with the mutator stopped, the
// same statement estimated twice must produce a cache hit and an
// estimate identical to the first, field for field.
func (h *harness) warmAudit() {
	before := h.sys.CacheStats()
	first, err := h.sys.Estimate(versionProbeSQL, els.AlgorithmELS)
	if err != nil {
		h.violation(fmt.Sprintf("warm audit: cold estimate failed: %v", err))
		return
	}
	second, err := h.sys.Estimate(versionProbeSQL, els.AlgorithmELS)
	if err != nil {
		h.violation(fmt.Sprintf("warm audit: warm estimate failed: %v", err))
		return
	}
	after := h.sys.CacheStats()
	if after.Hits == before.Hits {
		h.violation("warm audit: repeating a statement at a quiesced version produced no cache hit")
	}
	if !reflect.DeepEqual(first, second) {
		h.violation(fmt.Sprintf("warm audit: cached estimate differs from cold one:\n  cold %+v\n  warm %+v", first, second))
	}
}
