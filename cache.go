package els

import "repro/internal/plancache"

// CacheStats is a point-in-time snapshot of the plan/estimate cache:
// hit/miss/eviction/invalidation counters and current occupancy, plus
// TextHits — the hits found by the statement's text alone, which skipped
// lexing, parsing, binding and canonicalising. The
// cache is keyed by (canonical normalized query, algorithm, catalog
// version) — see the "Columnar execution & plan cache" section of the
// README — so semantically identical query texts (whitespace, predicate
// order, alias case) share one entry, and no entry can ever be served
// against a catalog version other than the one it was planned on.
type CacheStats = plancache.Stats

// CacheStats snapshots the system's plan-cache counters. Every Estimate,
// EstimateOrder, Explain, ExplainDot, and Query consults the cache unless
// Limits.DisableCache is set; capacity follows Limits.PlanCacheSize
// (0 selects the default).
func (s *System) CacheStats() CacheStats {
	if s.cache == nil {
		return CacheStats{}
	}
	return s.cache.Stats()
}

// CacheStats snapshots the replica's plan-cache counters. A replica
// caches like a primary: every replayed frame publishes a new catalog
// version, which retires cached plans from older versions exactly as a
// local mutation would on the primary.
func (r *Replica) CacheStats() CacheStats { return r.sys.CacheStats() }
