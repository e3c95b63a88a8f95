// Package counters defines the two statistics sections a System serves
// over the wire: its serving-layer counters and its plan-cache counters.
// It imports nothing from this module, so els (which snapshots them),
// plancache (which counts its half) and wire (which serves both) share one
// definition, and the JSON keys the wire document carries are the tags
// here.
package counters

import "time"

// Robustness is a point-in-time snapshot of the serving layer's counters:
// admission, shedding, queueing, retries, the circuit breaker, memory
// governance and estimate quality. Counters are cumulative since the
// System was created or opened.
type Robustness struct {
	// CatalogVersion is the currently published catalog version.
	CatalogVersion uint64 `json:"catalog_version"`
	// Admitted counts queries that got an execution slot.
	Admitted uint64 `json:"admitted"`
	// ShedQueueFull and ShedQueueTimeout count queries shed with
	// ErrOverloaded because the admission queue was full or the queue
	// deadline elapsed.
	ShedQueueFull    uint64 `json:"shed_queue_full"`
	ShedQueueTimeout uint64 `json:"shed_queue_timeout"`
	// RejectedClosed counts queries refused with ErrClosed after Close.
	RejectedClosed uint64 `json:"rejected_closed"`
	// QueueWait is the cumulative time admitted queries waited for a slot.
	QueueWait time.Duration `json:"queue_wait_ns"`
	// InFlight and Waiting are current gauges; both must be zero after a
	// drain (the slot-leak audit).
	InFlight int `json:"in_flight"`
	Waiting  int `json:"waiting"`
	// Retries counts retry attempts; RetrySuccesses counts queries that
	// succeeded after at least one retry.
	Retries        uint64 `json:"retries"`
	RetrySuccesses uint64 `json:"retry_successes"`
	// BreakerState is "closed", "open", or "half-open".
	BreakerState string `json:"breaker_state"`
	// BreakerOpens, BreakerRejections, and BreakerProbes count breaker
	// transitions to open, queries failed fast while open, and half-open
	// probe queries admitted.
	BreakerOpens      uint64 `json:"breaker_opens"`
	BreakerRejections uint64 `json:"breaker_rejections"`
	BreakerProbes     uint64 `json:"breaker_probes"`
	// SpilledQueries counts queries that partitioned at least one hash-join
	// build side to stay under Limits.MaxMemory; SpilledBytes is the
	// cumulative build-side bytes their partitioning passes routed (no
	// disk is involved).
	SpilledQueries uint64 `json:"spilled_queries,omitempty"`
	SpilledBytes   int64  `json:"spilled_bytes,omitempty"`
	// PeakQueryBytes is the largest single-query working-memory high-water
	// mark (see Result.PeakMemoryBytes).
	PeakQueryBytes int64 `json:"peak_query_bytes,omitempty"`
	// MaxQError is the largest Result.MaxQError of any executed query: the
	// worst gap between an operator's estimated and actual row count.
	MaxQError float64 `json:"max_qerror,omitempty"`
}

// PlanCache is a point-in-time snapshot of the plan cache's counters.
type PlanCache struct {
	// Hits and Misses count lookups: a GetText hit or a Lookup hit is one
	// hit, a Lookup miss is one miss, a GetText miss is neither (the Lookup
	// that follows it decides).
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	// TextHits counts the Hits that GetText served — the lookups that never
	// reached the parser.
	TextHits uint64 `json:"text_hits"`
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions uint64 `json:"evictions"`
	// Invalidations counts entries retired because a table they read was
	// written since, at a lookup pinned after the write that found them.
	Invalidations uint64 `json:"invalidations"`
	// Entries and Capacity describe current occupancy.
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s PlanCache) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}
