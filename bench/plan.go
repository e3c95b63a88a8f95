package main

import (
	"context"
	"math"
	"time"

	els "repro"
	"repro/internal/querygen"
)

// serialLimits is what every System of the benchmark plans under: one
// worker. With the default (Workers = 0, i.e. GOMAXPROCS) the optimizer's
// parallel DP calls eqclass.Classes.ClassID from several goroutines, and
// ClassID compresses paths — a map write — so the process dies with "fatal
// error: concurrent map read and map write" within seconds on a 2-core box
// (see README, "Findings"). A benchmark must not fail, so it stays serial
// until that is fixed; one client per System is the load shape anyway.
var serialLimits = els.Limits{Workers: 1}

// hotPool is how many statements plan_hot (and serve_mixed's ESTIMATE mix)
// re-issue; it fits the default 512-entry plan cache eight times over.
const hotPool = 64

// planWorkload is plan_cold and plan_hot: in-process System.Estimate over
// the 12-table statistics-only catalog. Both use the same System set-up and
// the same statement generator and differ only in the working set: cold
// cycles through more distinct statements than the plan cache holds, so
// every issue misses; hot re-issues a pool that fits, so every issue hits.
type planWorkload struct {
	e   *env
	hot bool

	data     dataset
	sys      *els.System
	stmts    []stmt
	schedule []int     // statement index of every issue of one repeat
	ref      []float64 // expected FinalSize per statement; NaN until known
	next     int       // cold: where in the cycle the next repeat starts
	base     els.CacheStats
}

func newPlanCold(e *env) workload { return &planWorkload{e: e} }
func newPlanHot(e *env) workload  { return &planWorkload{e: e, hot: true} }

func (w *planWorkload) setup() error {
	cfg := w.e.cfg
	w.data = dataset{Stats: planCatalog(cfg.seed)}
	w.sys = els.New()
	w.sys.SetLimits(serialLimits)
	if _, _, err := w.data.load(w.sys); err != nil {
		return err
	}
	n := cfg.sz.PlanCycle
	if w.hot {
		n = hotPool
	}
	w.stmts = planStatements(cfg.seed, w.data.Stats, n, planMaxTables)
	w.ref = make([]float64, n)
	for i := range w.ref {
		w.ref[i] = math.NaN()
	}
	if w.hot {
		// The reference for a hot (cached) estimate is the cold one: the same
		// statement on a System that never caches.
		cold := els.New()
		cold.SetLimits(els.Limits{Workers: 1, DisableCache: true})
		if _, _, err := w.data.load(cold); err != nil {
			return err
		}
		for i, s := range w.stmts {
			est, err := cold.Estimate(s.SQL, s.Algo)
			if err != nil {
				return err
			}
			w.ref[i] = est.FinalSize
		}
		w.schedule = querygen.RepeatSchedule(subSeed(cfg.seed, "hot-schedule"), hotPool, cfg.sz.HotOps, 1.5)
		// Warm-up: fill the cache with the whole pool, then a stretch of the schedule.
		for i := range w.stmts {
			w.issue(i)
		}
		for _, i := range w.schedule[:len(w.schedule)/4] {
			w.issue(i)
		}
	} else {
		w.schedule = make([]int, cfg.sz.PlanRepeat)
		// Warm-up on the tail of the cycle: by the time the measured pass
		// comes round to these statements the cache has long evicted them.
		for i := n - cfg.sz.PlanRepeat/4; i < n; i++ {
			w.issue(i)
		}
	}
	w.base = w.sys.CacheStats()
	return nil
}

// issue runs one estimate and verifies it against the statement's
// reference (the first result seen, when setup computed none).
func (w *planWorkload) issue(i int) bool {
	s := w.stmts[i]
	est, err := w.sys.Estimate(s.SQL, s.Algo)
	if err != nil {
		w.e.fail.add("estimate %q under %s: %v", s.SQL, s.Algo, err)
		return false
	}
	switch {
	case math.IsNaN(w.ref[i]):
		w.ref[i] = est.FinalSize
	case est.FinalSize != w.ref[i]:
		w.e.fail.add("estimate %q under %s: final size %g, reference %g", s.SQL, s.Algo, est.FinalSize, w.ref[i])
		return false
	}
	if len(est.JoinOrder) != s.Tables || !(est.FinalSize >= 0) {
		w.e.fail.add("estimate %q under %s: join order %v, final size %g", s.SQL, s.Algo, est.JoinOrder, est.FinalSize)
		return false
	}
	return true
}

// nextSchedule returns the statement indexes of the next repeat. Cold
// walks the cycle one mix period at a time; hot replays its fixed schedule.
func (w *planWorkload) nextSchedule() []int {
	if !w.hot {
		for k := range w.schedule {
			w.schedule[k] = (w.next + k) % len(w.stmts)
		}
		w.next = (w.next + len(w.schedule)) % len(w.stmts)
	}
	return w.schedule
}

func (w *planWorkload) repeat() repeatResult {
	sched := w.nextSchedule()
	return timedLoop(len(sched), func(k int) bool { return w.issue(sched[k]) })
}

func (w *planWorkload) tracedRepeat(tr *tracer) repeatResult {
	cat, err := w.data.catalog()
	if err != nil {
		w.e.fail.add("building the replay catalog: %v", err)
		return repeatResult{}
	}
	rp := newReplayer(w.e.ctx, newTracer(), cat, serialLimits, "")
	if w.hot {
		// Bring the replayer's cache to where the System's is: pool resident.
		for id, s := range w.stmts {
			if _, err := rp.replay(id, spanEstimate, s.SQL, s.Algo, false); err != nil {
				w.e.fail.add("replay warm-up %q: %v", s.SQL, err)
			}
		}
	}
	rp.tr = tr
	sched := w.nextSchedule()
	return timedLoop(len(sched), func(k int) bool {
		s := w.stmts[sched[k]]
		t0 := time.Now()
		ok := w.issue(sched[k])
		tr.record(k, spanEstimate, "", t0, time.Now(), nil)
		if _, err := rp.replay(k, spanEstimate, s.SQL, s.Algo, false); err != nil {
			w.e.fail.add("replay %q: %v", s.SQL, err)
			return false
		}
		return ok
	})
}

func (w *planWorkload) layers(tr *tracer, m map[string]float64) {
	st := w.sys.CacheStats()
	hits, misses := st.Hits-w.base.Hits, st.Misses-w.base.Misses
	if hits+misses > 0 {
		m["plancache.hit_rate"] = float64(hits) / float64(hits+misses)
	}
	m["plancache.evictions"] = float64(st.Evictions - w.base.Evictions)
}

func (w *planWorkload) qerrors() []float64 { return nil }

func (w *planWorkload) teardown() error {
	ctx, cancel := context.WithTimeout(w.e.ctx, 10*time.Second)
	defer cancel()
	return w.sys.Close(ctx)
}
