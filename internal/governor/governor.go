// Package governor enforces per-query resource budgets across the
// estimation/planning/execution pipeline and defines the typed error
// taxonomy the public API reports failures through.
//
// A Governor is created per query from a context.Context plus a Limits
// configuration. The optimizer ticks it once per enumerated join candidate
// set; the executor ticks it once per tuple visited and per materialized
// output row. Ticks are cheap (an atomic add and compare); the context is
// polled only every checkInterval ticks so that governance stays off the
// critical path of tight scan loops.
//
// Counters are atomic, so goroutines may tick one shared Governor
// concurrently: accounting stays exact (every visited tuple is charged
// exactly once) and a budget overrun is detected by whichever caller crosses
// the limit. The pipeline itself ticks from the query's one goroutine.
//
// A nil *Governor is valid and enforces nothing, so deep pipeline code can
// thread a governor unconditionally without nil checks at every site.
package governor

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// Class is one row of the failure taxonomy: a sentinel, its stable wire
// code (also the class name the chaos reports histogram failures by), and
// whether resubmitting the same request can succeed.
type Class struct {
	Err       error
	Code      string
	Retryable bool
}

// taxonomy holds one row per sentinel, in declaration order. sentinel is
// the only constructor of taxonomy errors, so a sentinel cannot exist
// without its row.
var taxonomy []Class

func sentinel(code, text string, retryable bool) error {
	err := errors.New(text)
	taxonomy = append(taxonomy, Class{Err: err, Code: code, Retryable: retryable})
	return err
}

// Sentinel errors of the pipeline's failure taxonomy. All errors returned
// by the governed pipeline match exactly one of these under errors.Is.
// Declaration order is classification priority (see Classify): structured
// wrappers first (tenant, overload), so an error chaining several
// sentinels gets the most specific class. The codes are wire protocol:
// renaming one breaks every deployed client.
var (
	// ErrTenant reports that a multi-tenant server could not route the
	// request to a healthy tenant: the tenant is unknown, or its bulkhead
	// quarantined it as degraded (repeated internal errors or a frozen
	// durable store). Other tenants on the same server are unaffected.
	ErrTenant = sentinel("tenant", "els: tenant unavailable", false)
	// ErrBadWire reports a wire-protocol failure between a client and a
	// serving process (cmd/elsserve): a frame that failed length or
	// checksum verification, a malformed or oversized request, an unknown
	// operation, or a connection that died mid-frame. The request it
	// covered may or may not have executed; idempotent reads are safe to
	// resubmit on a fresh connection.
	ErrBadWire = sentinel("bad_wire", "els: wire protocol failure", false)
	// ErrOverloaded reports that admission control shed the query: the
	// concurrency limit was reached and the query could not be queued (queue
	// full) or waited past its queue deadline, or the circuit breaker is
	// open. Overload is a property of the system's load, not of the query —
	// the same query may succeed when resubmitted later.
	ErrOverloaded = sentinel("overloaded", "els: overloaded", true)
	// ErrClosed reports that the system is draining or closed
	// (System.Close); new queries fail fast with this error.
	ErrClosed = sentinel("closed", "els: system closed", false)
	// ErrStaleReplica reports that a read replica is further behind the
	// primary than Limits.MaxReplicaLag allows. The read was rejected
	// before estimation started; the caller can retry (replicas catch up)
	// or fail over to the primary, which is never stale.
	ErrStaleReplica = sentinel("stale_replica", "els: stale replica", true)
	// ErrDiverged reports that a read replica's catalog failed the
	// version-digest audit: after replaying a shipped frame for version V
	// its catalog was not byte-identical to the primary's catalog at V.
	// The replica is quarantined — every subsequent read fails with this
	// error — until it is re-attached and resynchronized from a full
	// catalog frame.
	ErrDiverged = sentinel("diverged", "els: replica diverged", false)
	// ErrDurability reports that the durable catalog store (write-ahead
	// log or checkpoint; see els.Open) failed to make a mutation durable.
	// The mutation was not acknowledged and no new catalog version was
	// published; the durable store refuses further mutations until the
	// system is reopened, because the on-disk suffix state is unknown.
	// Queries keep serving from the last published in-memory version.
	ErrDurability = sentinel("durability", "els: durability failure", false)
	// ErrMemory reports that a query's byte budget (Limits.MaxMemory) was
	// exhausted by working memory that cannot be partitioned down to fit
	// (sort scratch). Unlike ErrOverloaded it is a property of the query
	// against its budget, not of system load: resubmitting the same query
	// under the same budget fails the same way, so it is not retryable.
	// It sits above the generic budget class: if a failure ever chains
	// both, the byte-budget code is the more actionable one.
	ErrMemory = sentinel("memory", "els: memory budget exceeded", false)
	// ErrBudgetExceeded reports that a resource limit (wall-clock, tuples
	// scanned, rows materialized, plans enumerated) was exhausted.
	ErrBudgetExceeded = sentinel("budget_exceeded", "els: resource budget exceeded", false)
	// ErrCanceled reports that the query's context was canceled.
	ErrCanceled = sentinel("canceled", "els: query canceled", false)
	// ErrParse reports a malformed query or unresolvable reference.
	ErrParse = sentinel("parse", "els: parse error", false)
	// ErrBadStats reports catalog statistics too broken to estimate from
	// (the estimator degrades to defaults where it can; this error is for
	// inputs rejected outright, e.g. a negative declared cardinality).
	ErrBadStats = sentinel("bad_stats", "els: invalid catalog statistics", false)
	// ErrInternal reports a panic recovered at the public API boundary:
	// this attempt hit a bug or an injected fault, the next may not.
	ErrInternal = sentinel("internal", "els: internal error", true)
)

// Taxonomy returns every row in classification-priority order. The slice
// is shared; callers must not modify it.
func Taxonomy() []Class { return taxonomy }

// Classify returns the first row, in priority order, whose sentinel err
// matches under errors.Is; ok is false for an error outside the taxonomy.
func Classify(err error) (c Class, ok bool) {
	for _, c := range taxonomy {
		if errors.Is(err, c.Err) {
			return c, true
		}
	}
	return Class{}, false
}

// ClassByCode returns the row a wire code names.
func ClassByCode(code string) (c Class, ok bool) {
	for _, c := range taxonomy {
		if c.Code == code {
			return c, true
		}
	}
	return Class{}, false
}

// Retryable reports whether err matches any retryable sentinel: internal
// errors, overload sheds, and stale-replica rejections. Every other class
// is deterministic for the same submission.
func Retryable(err error) bool {
	for _, c := range taxonomy {
		if c.Retryable && errors.Is(err, c.Err) {
			return true
		}
	}
	return false
}

// BudgetError is the concrete error for an exhausted budget. It matches
// ErrBudgetExceeded under errors.Is and names the resource that ran out.
type BudgetError struct {
	// Resource is one of "wall-clock", "tuples", "rows", "plans".
	Resource string
	// Limit is the configured budget; Used is consumption at detection
	// (for wall-clock both are in nanoseconds).
	Limit, Used int64
}

func (e *BudgetError) Error() string {
	if e.Resource == "wall-clock" {
		return fmt.Sprintf("els: resource budget exceeded: wall-clock limit %s reached",
			time.Duration(e.Limit))
	}
	return fmt.Sprintf("els: resource budget exceeded: %s limit %d reached (used %d)",
		e.Resource, e.Limit, e.Used)
}

// Unwrap makes errors.Is(err, ErrBudgetExceeded) hold.
func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// OverloadError is the concrete error for a shed query. It matches
// ErrOverloaded under errors.Is and names why admission refused the query.
type OverloadError struct {
	// Reason is one of "queue full", "queue timeout", "circuit breaker open".
	Reason string
	// MaxConcurrent and MaxQueue are the admission limits in force.
	MaxConcurrent, MaxQueue int
	// Waited is how long the query sat in the admission queue before being
	// shed (zero for immediate sheds).
	Waited time.Duration
}

func (e *OverloadError) Error() string {
	s := fmt.Sprintf("els: overloaded: %s (max-concurrent %d", e.Reason, e.MaxConcurrent)
	if e.MaxQueue > 0 {
		s += fmt.Sprintf(", max-queue %d", e.MaxQueue)
	}
	s += ")"
	if e.Waited > 0 {
		s += fmt.Sprintf(" after waiting %s", e.Waited)
	}
	return s
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *OverloadError) Unwrap() error { return ErrOverloaded }

// InternalError is the concrete error for a recovered panic. It matches
// ErrInternal under errors.Is and carries the panic value and stack.
type InternalError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery time.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("els: internal error: panic: %v", e.Value)
}

// Unwrap makes errors.Is(err, ErrInternal) hold.
func (e *InternalError) Unwrap() error { return ErrInternal }

// NewInternal wraps a recovered panic value and its stack.
func NewInternal(value any, stack []byte) *InternalError {
	return &InternalError{Value: value, Stack: stack}
}

// StaleReplicaError is the concrete error for a read rejected on a
// lagging replica. It matches ErrStaleReplica under errors.Is and reports
// how far behind the replica was.
type StaleReplicaError struct {
	// ReplicaID names the replica that rejected the read.
	ReplicaID string
	// Lag is how many catalog versions the replica trailed the primary at
	// rejection time; MaxLag is the Limits.MaxReplicaLag bound in force.
	Lag, MaxLag uint64
}

func (e *StaleReplicaError) Error() string {
	return fmt.Sprintf("els: stale replica %s: %d versions behind primary (max-replica-lag %d)",
		e.ReplicaID, e.Lag, e.MaxLag)
}

// Unwrap makes errors.Is(err, ErrStaleReplica) hold.
func (e *StaleReplicaError) Unwrap() error { return ErrStaleReplica }

// DivergenceError is the concrete error for a failed replica digest
// audit. It matches ErrDiverged under errors.Is and carries the hex
// SHA-256 digests that disagreed.
type DivergenceError struct {
	// ReplicaID names the quarantined replica.
	ReplicaID string
	// Version is the catalog version whose digests disagreed.
	Version uint64
	// Want is the digest the primary shipped with the frame; Got is the
	// digest of the replica's catalog after replaying it.
	Want, Got string
}

func (e *DivergenceError) Error() string {
	return fmt.Sprintf("els: replica %s diverged at catalog version %d: digest %s, primary shipped %s",
		e.ReplicaID, e.Version, e.Got, e.Want)
}

// Unwrap makes errors.Is(err, ErrDiverged) hold.
func (e *DivergenceError) Unwrap() error { return ErrDiverged }

// TenantError is the concrete error for a request a multi-tenant server
// refused to route. It matches ErrTenant under errors.Is and reports
// whether the tenant exists at all and whether its bulkhead quarantined
// it.
type TenantError struct {
	// Tenant names the tenant the request addressed.
	Tenant string
	// Reason is one of "unknown tenant", "quarantined", "draining".
	Reason string
	// Quarantined marks a tenant degraded by its bulkhead (repeated
	// internal errors or a frozen durable store) rather than absent.
	Quarantined bool
	// Cause is the failure that tripped the quarantine, when one did.
	Cause error
}

func (e *TenantError) Error() string {
	s := fmt.Sprintf("els: tenant unavailable: %q: %s", e.Tenant, e.Reason)
	if e.Cause != nil {
		s += ": " + e.Cause.Error()
	}
	return s
}

// Unwrap makes errors.Is(err, ErrTenant) hold.
func (e *TenantError) Unwrap() error { return ErrTenant }

// MemoryError is the concrete error for an exhausted byte budget. It
// matches ErrMemory under errors.Is and names the allocation site that
// could not be served within Limits.MaxMemory.
type MemoryError struct {
	// Operator names the materialization that tripped the budget (e.g.
	// "sort-merge scratch").
	Operator string
	// Limit is the configured MaxMemory budget in bytes; Used is the
	// working set charged at detection; Requested is the allocation that
	// did not fit.
	Limit, Used, Requested int64
}

func (e *MemoryError) Error() string {
	return fmt.Sprintf("els: memory budget exceeded: %s needs %d bytes (%d of %d in use)",
		e.Operator, e.Requested, e.Used, e.Limit)
}

// Unwrap makes errors.Is(err, ErrMemory) hold.
func (e *MemoryError) Unwrap() error { return ErrMemory }

// MemoryPressureError is the concrete error for a query shed because the
// serving process's shared memory pool could not cover its reservation.
// Pressure is a property of the system's load, not of the query — the
// same query succeeds when neighbors release their shares — so it matches
// ErrOverloaded (retryable) under errors.Is, not ErrMemory.
type MemoryPressureError struct {
	// Tenant names the tenant whose share was exhausted.
	Tenant string
	// Requested is the admission-time byte reservation that did not fit;
	// InUse is the tenant's outstanding reservation total; Share is the
	// tenant's slice of the process-wide pool.
	Requested, InUse, Share int64
}

func (e *MemoryPressureError) Error() string {
	return fmt.Sprintf("els: overloaded: memory pool exhausted: tenant %q needs %d bytes (%d of %d-byte share in use)",
		e.Tenant, e.Requested, e.InUse, e.Share)
}

// Unwrap makes errors.Is(err, ErrOverloaded) hold.
func (e *MemoryPressureError) Unwrap() error { return ErrOverloaded }

// Limits configures per-query resource budgets. The zero value enforces
// nothing.
type Limits struct {
	// Timeout is the wall-clock budget for one call; 0 disables. The
	// deadline starts when the Governor is created and is enforced even if
	// the caller's context carries no deadline of its own.
	Timeout time.Duration
	// MaxTuples bounds base-table and materialized-input tuples visited
	// during execution; 0 disables.
	MaxTuples int64
	// MaxRows bounds rows materialized into operator outputs; 0 disables.
	MaxRows int64
	// MaxPlans bounds join-candidate sets enumerated during planning; 0
	// disables.
	MaxPlans int64
	// Workers is accepted and ignored: a query runs on the goroutine that
	// issued it.
	//
	// Deprecated: kept only because the frozen bench/ sets it.
	Workers int
	// MaxConcurrent caps how many queries the system serves at once
	// (admission control); 0 disables. Queries beyond the cap wait in the
	// admission queue and are shed with ErrOverloaded when the queue fills
	// or QueueTimeout elapses.
	MaxConcurrent int
	// MaxQueue caps how many queries may wait for admission at once; 0
	// means unbounded. Only meaningful with MaxConcurrent > 0.
	MaxQueue int
	// QueueTimeout bounds how long a query waits for admission before being
	// shed with ErrOverloaded; 0 means wait indefinitely (until the
	// caller's context dies). Only meaningful with MaxConcurrent > 0.
	QueueTimeout time.Duration
	// CheckpointEvery compacts the durable store's write-ahead log into an
	// atomic checkpoint after this many WAL records (systems opened with
	// els.Open only; 0 disables auto-checkpointing and leaves compaction
	// to explicit Checkpoint calls). Like the admission fields it governs
	// the system, not a single query's budget.
	CheckpointEvery int
	// MaxReplicaLag bounds how many catalog versions behind the primary a
	// read replica (els.OpenReplica) may serve from: a read on a replica
	// lagging further is rejected with ErrStaleReplica before estimation
	// starts. 0 means unbounded — every read serves, however stale. It
	// has no effect on a primary, which is never stale.
	MaxReplicaLag int
	// DisableColumnar is accepted and ignored: the executor has one engine.
	//
	// Deprecated: kept only because the frozen bench/ sets it.
	DisableColumnar bool
	// DisableCache bypasses the plan/estimate cache for this system's
	// serve calls: every query is parsed, planned, and estimated cold. It
	// exists so the cached and cold paths can be compared against each other
	// at any time.
	DisableCache bool
	// PlanCacheSize overrides the plan cache's entry capacity; 0 keeps the
	// default. Like the admission fields it governs the system, not a
	// single query's budget.
	PlanCacheSize int
	// MaxMemory bounds one query's working memory in bytes; 0 disables.
	// Hash joins whose build side would not fit run partition by partition
	// (Grace-style, in memory, bit-identical results); working memory that
	// cannot be partitioned (sort scratch) fails with ErrMemory. Materialized
	// operator outputs are charged to the bytes ledger for observability
	// but are bounded by MaxRows, not MaxMemory, so a budgeted query
	// returns the same rows as an unbudgeted one.
	MaxMemory int64
}

// Enforced reports whether any budget limit is set (the admission fields
// govern the system rather than a single query's budget and do not count).
func (l Limits) Enforced() bool {
	return l.Timeout > 0 || l.MaxTuples > 0 || l.MaxRows > 0 || l.MaxPlans > 0 || l.MaxMemory > 0
}

// Admission reports whether admission control is configured.
func (l Limits) Admission() bool { return l.MaxConcurrent > 0 }

// checkInterval is how many charged units pass between context/deadline
// polls.
const checkInterval = 1024

// Governor tracks one query's resource consumption against its limits.
// All methods are safe for concurrent use; concurrent queries each get
// their own.
type Governor struct {
	ctx        context.Context
	limits     Limits
	deadline   time.Time
	start      time.Time
	tuples     atomic.Int64
	rows       atomic.Int64
	plans      atomic.Int64
	queueWait  atomic.Int64 // nanoseconds spent waiting for admission
	sinceCheck atomic.Int64

	// Bytes ledger. memBytes is the live working set; memPeak its
	// high-water mark; memReserved the planner's estimate-informed
	// pre-reservation; spills/spilledBytes count the hash joins'
	// partitioning passes and the build bytes they routed. Charges at
	// operator boundaries are deterministic for a given plan, which is what
	// keeps the spill decision — and therefore the result bytes — the same
	// run after run.
	memBytes     atomic.Int64
	memPeak      atomic.Int64
	memReserved  atomic.Int64
	spills       atomic.Int64
	spilledBytes atomic.Int64
}

// New creates a governor for one query. ctx may be nil (treated as
// context.Background()).
func New(ctx context.Context, limits Limits) *Governor {
	if ctx == nil {
		ctx = context.Background() //ctxflow:allow nil-context compatibility default
	}
	g := &Governor{ctx: ctx, limits: limits, start: time.Now()}
	if limits.Timeout > 0 {
		g.deadline = g.start.Add(limits.Timeout)
	}
	return g
}

// Context returns the context the governor polls (Background for a nil
// governor).
func (g *Governor) Context() context.Context {
	if g == nil || g.ctx == nil {
		return context.Background() //ctxflow:allow nil governor has no context to return
	}
	return g.ctx
}

// Err polls cancellation and the wall-clock budget immediately, mapping
// context errors into the taxonomy: Canceled → ErrCanceled, deadline (from
// the context or from Limits.Timeout) → ErrBudgetExceeded("wall-clock").
func (g *Governor) Err() error {
	if g == nil {
		return nil
	}
	if err := g.ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return g.wallClockError()
		}
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
	if !g.deadline.IsZero() && time.Now().After(g.deadline) {
		return g.wallClockError()
	}
	return nil
}

func (g *Governor) wallClockError() error {
	limit := int64(g.limits.Timeout)
	if limit == 0 {
		if d, ok := g.ctx.Deadline(); ok {
			limit = int64(d.Sub(g.start))
		}
	}
	return &BudgetError{Resource: "wall-clock", Limit: limit, Used: int64(time.Since(g.start))}
}

// poll amortizes Err over checkInterval charged units, so a batch kernel
// that ticks thousands of rows in one call polls as often per row as a loop
// that ticks them one by one. The since-last-check counter is shared across
// goroutines; the exact poll cadence under concurrency is approximate, which
// is fine — polling exists only to bound cancellation latency, not for
// accounting.
func (g *Governor) poll(n int64) error {
	if g.sinceCheck.Add(n) < checkInterval {
		return nil
	}
	g.sinceCheck.Store(0)
	return g.Err()
}

// TickTuples charges n visited tuples against the tuple budget.
func (g *Governor) TickTuples(n int64) error {
	if g == nil {
		return nil
	}
	used := g.tuples.Add(n)
	if g.limits.MaxTuples > 0 && used > g.limits.MaxTuples {
		return &BudgetError{Resource: "tuples", Limit: g.limits.MaxTuples, Used: used}
	}
	return g.poll(n)
}

// TickRows charges n materialized output rows against the row budget.
func (g *Governor) TickRows(n int64) error {
	if g == nil {
		return nil
	}
	used := g.rows.Add(n)
	if g.limits.MaxRows > 0 && used > g.limits.MaxRows {
		return &BudgetError{Resource: "rows", Limit: g.limits.MaxRows, Used: used}
	}
	return g.poll(n)
}

// TickPlans charges n enumerated plan candidates against the plan budget.
func (g *Governor) TickPlans(n int64) error {
	if g == nil {
		return nil
	}
	used := g.plans.Add(n)
	if g.limits.MaxPlans > 0 && used > g.limits.MaxPlans {
		return &BudgetError{Resource: "plans", Limit: g.limits.MaxPlans, Used: used}
	}
	return g.poll(n)
}

// Usage reports the resources consumed so far.
func (g *Governor) Usage() (tuples, rows, plans int64) {
	if g == nil {
		return 0, 0, 0
	}
	return g.tuples.Load(), g.rows.Load(), g.plans.Load()
}

// RecordQueueWait charges the time the query spent waiting for admission.
// Queue wait is accounting only: it is not charged against the wall-clock
// budget, whose deadline starts when the Governor is created (after
// admission), so a long queue wait cannot consume a query's own budget.
func (g *Governor) RecordQueueWait(d time.Duration) {
	if g == nil || d <= 0 {
		return
	}
	g.queueWait.Add(int64(d))
}

// QueueWait reports how long the query waited for admission.
func (g *Governor) QueueWait() time.Duration {
	if g == nil {
		return 0
	}
	return time.Duration(g.queueWait.Load())
}

// MemoryEnforced reports whether the query has a byte budget; partition
// decisions and hard memory grabs engage only when it does, so a query
// without MaxMemory behaves exactly as before the ledger existed.
func (g *Governor) MemoryEnforced() bool {
	return g != nil && g.limits.MaxMemory > 0
}

// MaxMemory returns the configured byte budget (0 for none).
func (g *Governor) MaxMemory() int64 {
	if g == nil {
		return 0
	}
	return g.limits.MaxMemory
}

// ReserveBytes records the planner's estimate-informed pre-reservation:
// the working memory the plan is expected to need, derived from the ELS
// estimates before execution starts. A hash-join build side that turns
// out larger than the reservation is partitioned at once — the estimate was
// wrong, so the budget stops trusting it — rather than growing toward
// the OOM cliff.
func (g *Governor) ReserveBytes(n int64) {
	if g == nil || n <= 0 {
		return
	}
	g.memReserved.Store(n)
}

// ReservedBytes reports the pre-reservation (0 when none was made).
func (g *Governor) ReservedBytes() int64 {
	if g == nil {
		return 0
	}
	return g.memReserved.Load()
}

// ChargeBytes adds n bytes to the working-set ledger. It is accounting,
// not enforcement: materialization points charge unconditionally so the
// ledger is exact, and the spill/grab decision points read it. Pass a
// negative n via ReleaseBytes instead.
func (g *Governor) ChargeBytes(n int64) {
	if g == nil || n == 0 {
		return
	}
	used := g.memBytes.Add(n)
	for {
		peak := g.memPeak.Load()
		if used <= peak || g.memPeak.CompareAndSwap(peak, used) {
			return
		}
	}
}

// ReleaseBytes returns n bytes to the ledger when a charged
// materialization dies (operator inputs consumed, scratch freed,
// partition state dropped).
func (g *Governor) ReleaseBytes(n int64) {
	if g == nil || n == 0 {
		return
	}
	g.memBytes.Add(-n)
}

// GrabBytes charges n bytes of working memory that cannot be partitioned
// (e.g. sort scratch), failing with a *MemoryError when the budget cannot cover it.
// Call sites must ReleaseBytes(n) when the scratch dies iff the grab
// succeeded.
func (g *Governor) GrabBytes(n int64, operator string) error {
	if g == nil {
		return nil
	}
	if max := g.limits.MaxMemory; max > 0 {
		if used := g.memBytes.Load(); used+n > max {
			return &MemoryError{Operator: operator, Limit: max, Used: used, Requested: n}
		}
	}
	g.ChargeBytes(n)
	return nil
}

// ShouldSpill decides whether a hash join whose build side needs `need`
// bytes runs partition by partition. It does when the budget cannot cover
// the build on top of the current working set, or when the build exceeds
// the planner's pre-reservation — the estimate-informed early trip. The
// inputs (ledger at an operator boundary, deterministic build size,
// per-query reservation) are the same on every run of a plan, and so is the
// call.
func (g *Governor) ShouldSpill(need int64) bool {
	if !g.MemoryEnforced() {
		return false
	}
	if g.memBytes.Load()+need > g.limits.MaxMemory {
		return true
	}
	if r := g.memReserved.Load(); r > 0 && need > r {
		return true
	}
	return false
}

// RecordSpill counts one partitioning pass that routed n build-side bytes.
func (g *Governor) RecordSpill(n int64) {
	if g == nil {
		return
	}
	g.spills.Add(1)
	g.spilledBytes.Add(n)
}

// MemoryUsage reports the bytes ledger: live working set, its peak, and
// the planner's pre-reservation.
func (g *Governor) MemoryUsage() (used, peak, reserved int64) {
	if g == nil {
		return 0, 0, 0
	}
	return g.memBytes.Load(), g.memPeak.Load(), g.memReserved.Load()
}

// SpillStats reports how many partitioning passes the query's hash joins
// ran and the total build-side bytes those passes routed.
func (g *Governor) SpillStats() (count, bytes int64) {
	if g == nil {
		return 0, 0
	}
	return g.spills.Load(), g.spilledBytes.Load()
}
