package els

import (
	"math"
	"sync/atomic"

	"repro/internal/counters"
	"repro/internal/durable"
	"repro/internal/plancache"
	"repro/internal/replica"
)

// Stats is a point-in-time snapshot of every counter a System keeps, one
// section per layer. The sections are read one after another, not under
// one lock, so two sections may describe slightly different instants.
type Stats struct {
	Robustness  RobustnessStats  // serving layer, memory governance, worst q-error
	Cache       CacheStats       // plan/estimate cache
	Durability  DurabilityStats  // durable store; zero (empty Dir) under New
	Replication ReplicationStats // a primary's shipper; zero before AttachReplica
	Replica     ReplicaStats     // follower state; only Replica.Stats fills it
}

// RobustnessStats is the serving layer's section of Stats, cumulative
// since New/Open. Its JSON keys are the wire server's per-tenant keys.
type RobustnessStats = counters.Robustness

// CacheStats is the plan/estimate cache's section of Stats. TextHits are
// the hits found by statement text alone, before lexing, parsing, binding
// and canonicalising. Entries are keyed by (canonical normalized query,
// algorithm, catalog version), so no entry is served against a catalog
// version other than the one it was planned on (README, "Columnar
// execution & plan cache").
type CacheStats = plancache.Stats

// DurabilityStats is the durable store's section of Stats: WAL size,
// checkpoint version, records since the last checkpoint, and whether a
// durability failure has frozen the catalog.
type DurabilityStats = durable.Stats

// ReplicationStats is a primary's shipping section of Stats: every
// follower's state in sorted-id order plus the frame, resync and
// (self-healing) drop counters.
type ReplicationStats = replica.Stats

// ReplicaStats is one follower's replication state: applied/known
// versions, lag, frame and read counters, and the quarantine/down flags.
type ReplicaStats = replica.FollowerStats

// Stats snapshots every section of the system's counters.
func (s *System) Stats() Stats {
	adm := s.adm.Snapshot()
	brk := s.breaker.Snapshot()
	return Stats{
		Robustness: RobustnessStats{
			CatalogVersion:    s.store.Version(),
			Admitted:          adm.Admitted,
			ShedQueueFull:     adm.ShedQueueFull,
			ShedQueueTimeout:  adm.ShedQueueTimeout,
			RejectedClosed:    adm.RejectedClosed,
			QueueWait:         adm.QueueWait,
			InFlight:          adm.InFlight,
			Waiting:           adm.Waiting,
			Retries:           s.retries.Load(),
			RetrySuccesses:    s.retrySuccesses.Load(),
			BreakerState:      brk.State.String(),
			BreakerOpens:      brk.Opens,
			BreakerRejections: brk.Rejections,
			BreakerProbes:     brk.Probes,
			SpilledQueries:    s.spilledQueries.Load(),
			SpilledBytes:      s.spilledBytes.Load(),
			PeakQueryBytes:    int64(s.peakQueryBytes.Load()),
			MaxQError:         math.Float64frombits(s.maxQError.Load()),
		},
		Cache:       s.cache.Stats(),
		Durability:  s.dur.Stats(),
		Replication: s.currentShipper().Stats(),
	}
}

// CacheStats is Stats().Cache, read without the other sections.
func (s *System) CacheStats() CacheStats { return s.cache.Stats() }

// DurabilityStats is Stats().Durability, read without the other sections.
func (s *System) DurabilityStats() DurabilityStats { return s.dur.Stats() }

// Stats snapshots the replica's counters: its own serving layer, plan
// cache and durable store, as a primary's, plus its follower state.
func (r *Replica) Stats() Stats {
	st := r.sys.Stats()
	st.Replica = r.fol.Stats()
	return st
}

// noteQuery rolls one executed query's outcome into the system's
// cumulative counters (Stats().Robustness): its memory governance and
// its MaxQError, which must already be computed.
func (s *System) noteQuery(r *Result) {
	if r.SpillCount > 0 {
		s.spilledQueries.Add(1)
		s.spilledBytes.Add(r.SpilledBytes)
	}
	storeMax(&s.peakQueryBytes, uint64(r.PeakMemoryBytes))
	// Non-negative floats order as their bit patterns do.
	storeMax(&s.maxQError, math.Float64bits(r.MaxQError))
}

// storeMax raises a to v unless it already holds at least v.
func storeMax(a *atomic.Uint64, v uint64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}
