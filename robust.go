package els

import (
	"fmt"
	"runtime/debug"

	"repro/internal/admission"
	"repro/internal/durable"
	"repro/internal/governor"
)

// The public error taxonomy. Every failure returned by Query, Estimate,
// Explain, and their context variants matches one of these sentinels under
// errors.Is, so callers can branch on failure class without string
// matching:
//
//	res, err := sys.QueryContext(ctx, sql, els.AlgorithmELS)
//	switch {
//	case errors.Is(err, els.ErrCanceled):       // caller gave up
//	case errors.Is(err, els.ErrBudgetExceeded): // resource limit hit
//	case errors.Is(err, els.ErrMemory):         // byte budget exhausted
//	case errors.Is(err, els.ErrParse):          // bad query
//	case errors.Is(err, els.ErrBadStats):       // rejected statistics
//	case errors.Is(err, els.ErrOverloaded):     // shed; resubmit later
//	case errors.Is(err, els.ErrClosed):         // system draining/closed
//	case errors.Is(err, els.ErrInternal):       // recovered panic (bug)
//	}
//
// Catalog mutations on a durable system (els.Open) can additionally fail
// with ErrDurability: the write-ahead log or checkpoint could not be made
// durable, nothing was published, and the catalog is frozen against
// further writes until the directory is reopened.
//
// Reads on a replica (els.OpenReplica) can additionally fail with
// ErrStaleReplica — the replica trails the primary past
// Limits.MaxReplicaLag; retry or fail over to the primary — or
// ErrDiverged — the replica failed its catalog digest audit and is
// quarantined until re-attached and resynchronized.
//
// errors.As exposes the structured details: *els.BudgetError names the
// exhausted resource and its limit; *els.InternalError carries the panic
// value and stack; *els.OverloadError names why admission shed the query;
// *els.StaleReplicaError carries the observed lag and bound;
// *els.DivergenceError carries the digests that disagreed.
var (
	ErrCanceled       = governor.ErrCanceled
	ErrBudgetExceeded = governor.ErrBudgetExceeded
	ErrBadStats       = governor.ErrBadStats
	ErrParse          = governor.ErrParse
	ErrInternal       = governor.ErrInternal
	ErrOverloaded     = governor.ErrOverloaded
	ErrClosed         = governor.ErrClosed
	ErrDurability     = governor.ErrDurability
	ErrStaleReplica   = governor.ErrStaleReplica
	ErrDiverged       = governor.ErrDiverged
	ErrBadWire        = governor.ErrBadWire
	ErrTenant         = governor.ErrTenant
	ErrMemory         = governor.ErrMemory
)

// Retryable reports whether err names a failure worth retrying: internal
// errors (ErrInternal — this attempt hit a bug or injected fault, the next
// may not), overload sheds (ErrOverloaded — a property of the system's
// load at that instant, not of the query), and stale-replica rejections
// (ErrStaleReplica — replicas catch up). Parse errors, bad statistics,
// cancellation, budget exhaustion (time/tuple/row/plan and memory alike),
// closed systems, durability freezes, divergence quarantines, and tenant
// quarantines are deterministic for the same submission and never retry.
//
// Retryable is the single classification shared by the in-process retry
// loop (SetRetryPolicy), the database/sql driver's resubmission policy,
// and wire responses' retryable flag, so every layer agrees on what "try
// again" means: all of them read the retryable column of the taxonomy
// table in internal/governor.
func Retryable(err error) bool { return governor.Retryable(err) }

// Limits configures per-query resource budgets and system-wide admission
// control (MaxConcurrent, MaxQueue, QueueTimeout); see SetLimits. The zero
// value enforces nothing.
type Limits = governor.Limits

// BudgetError details which resource budget a query exhausted.
type BudgetError = governor.BudgetError

// InternalError details a panic recovered at the API boundary.
type InternalError = governor.InternalError

// OverloadError details why admission control shed a query: the queue was
// full, the queue deadline elapsed, or the circuit breaker is open.
type OverloadError = governor.OverloadError

// StaleReplicaError details a read rejected on a lagging replica: which
// replica, how far behind it was, and the MaxReplicaLag bound in force.
type StaleReplicaError = governor.StaleReplicaError

// DivergenceError details a failed replica digest audit: which replica,
// at which catalog version, and the hex SHA-256 digests that disagreed.
type DivergenceError = governor.DivergenceError

// TenantError details a request a multi-tenant server (cmd/elsserve)
// refused to route: which tenant it addressed, why it was unavailable, and
// whether a bulkhead quarantine (rather than absence) is the cause.
type TenantError = governor.TenantError

// MemoryError details a query killed by its byte budget: which operator
// needed memory it could not partition its way out of, how much it asked for,
// and the Limits.MaxMemory in force. It is deterministic for the same
// submission and never retried.
type MemoryError = governor.MemoryError

// MemoryPressureError details a query the multi-tenant server's memory
// pool shed before admission: the tenant, the bytes it would have
// reserved, and the share already in use. Unlike MemoryError it unwraps to
// ErrOverloaded — pool pressure is a property of instantaneous load, so
// the shed is retryable and carries a Retry-After hint on the wire.
type MemoryPressureError = governor.MemoryPressureError

// SetLimits installs default resource limits applied to every subsequent
// query on this system (each call gets a fresh budget), and reconfigures
// admission control from the MaxConcurrent/MaxQueue/QueueTimeout fields
// (applying to queries admitted from now on; already-admitted queries are
// never evicted). Concurrent queries are each governed independently. Pass
// the zero Limits to remove them.
func (s *System) SetLimits(l Limits) {
	s.mu.Lock()
	s.limits = l
	s.mu.Unlock()
	s.adm.SetConfig(admission.Config{
		MaxConcurrent: l.MaxConcurrent,
		MaxQueue:      l.MaxQueue,
		QueueTimeout:  l.QueueTimeout,
	})
	if s.dur != nil {
		s.dur.SetOptions(durable.Options{CheckpointEvery: l.CheckpointEvery})
	}
	if s.cache != nil {
		s.cache.SetCapacity(l.PlanCacheSize)
	}
}

// Limits returns the system's current default resource limits.
func (s *System) Limits() Limits {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.limits
}

// recovered converts a panic captured at the public API boundary into an
// ErrInternal carrying the panic value and stack, so a bug in the pipeline
// surfaces as a typed error instead of killing the process embedding the
// library.
func recovered(err *error) {
	if r := recover(); r != nil {
		*err = governor.NewInternal(r, debug.Stack())
	}
}

// wrapParse tags front-end failures (lexing, parsing, binding) with
// ErrParse while preserving the original error chain.
func wrapParse(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrParse, err)
}
