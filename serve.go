package els

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/admission"
	"repro/internal/governor"
	"repro/internal/snapshot"
)

// RetryPolicy configures opt-in retry of transient failures. Only internal
// errors (ErrInternal — recovered panics and injected faults, the "this
// attempt hit a bug, the next may not" class) are retried; parse errors,
// bad statistics, cancellation, budget exhaustion, and overload are
// deterministic or load-dependent and never retry. The zero value disables
// retry.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included);
	// values ≤ 1 disable retry.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; it doubles per
	// retry (capped exponential backoff). 0 defaults to 1ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff; 0 means uncapped.
	MaxDelay time.Duration
	// Seed seeds the deterministic jitter applied to each backoff delay
	// (a multiplier in [0.5, 1.0)), so retry schedules are reproducible.
	Seed int64
}

// Enabled reports whether the policy retries anything.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// BreakerPolicy configures the opt-in circuit breaker: after Threshold
// consecutive internal errors the breaker opens and queries fail fast with
// ErrOverloaded; after Cooldown it half-opens and lets one probe query
// through. The zero value disables the breaker.
type BreakerPolicy = admission.BreakerConfig

// SetRetryPolicy installs (or, with the zero policy, removes) the retry
// policy applied to every subsequent query.
func (s *System) SetRetryPolicy(p RetryPolicy) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retry = p
	s.retryMu.Lock()
	s.retryRng = rand.New(rand.NewSource(p.Seed))
	s.retryMu.Unlock()
}

// retryPolicy returns the current retry policy.
func (s *System) retryPolicy() RetryPolicy {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.retry
}

// SetBreaker installs (or, with the zero policy, removes) the circuit
// breaker. Installing a policy resets the breaker to closed.
func (s *System) SetBreaker(p BreakerPolicy) {
	s.breaker.SetConfig(p)
}

// SetAdmissionObserver installs (or, with nil, removes) a callback invoked
// with every admitted query's queue wait, at admission time. Serving
// layers above the library (the wire server) use it to build wait
// distributions — p99 admission wait is an SLO — without polling
// cumulative counters. The callback runs on the query's serving goroutine
// before the query starts, so it must be fast and must not call back into
// the System.
func (s *System) SetAdmissionObserver(obs func(wait time.Duration)) {
	s.mu.Lock()
	s.admObs = obs
	s.mu.Unlock()
}

// admissionObserver returns the installed observer, or nil.
func (s *System) admissionObserver() func(time.Duration) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.admObs
}

// Close drains the system: it stops admitting (new queries fail fast with
// ErrClosed and the catalog becomes read-only), waits for in-flight
// queries to finish, and if ctx expires first cancels the stragglers'
// serving contexts — they abort with ErrCanceled — and keeps waiting until
// every slot is released. After Close returns there are zero in-flight
// queries. On a durable system (els.Open) the write-ahead log is then
// flushed and closed; everything acknowledged before Close is recoverable
// by reopening the directory. Close is idempotent and returns ctx.Err()
// when the drain deadline was hit, nil on a fully graceful drain.
func (s *System) Close(ctx context.Context) error {
	// Refuse AttachReplica and Checkpoint for the whole drain window
	// before stopping admission: both touch the shipper and the WAL that
	// this function is about to tear down.
	s.closing.Store(true)
	err := s.adm.Close(ctx)
	s.shipMu.Lock()
	sh := s.shipper
	s.shipper = nil
	s.shipMu.Unlock()
	if sh != nil {
		// Stop shipping before the WAL closes: link workers drain and
		// exit; followers keep serving at whatever version they reached.
		sh.Close()
	}
	if s.dur != nil {
		if derr := s.dur.Close(); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

// serve wraps one public query call with the serving layer: the circuit
// breaker gate, admission (concurrency cap, queue deadline, shedding),
// catalog snapshot pinning, per-attempt governance and panic recovery, and
// the opt-in retry loop. fn runs each attempt with the attempt's governor
// and the snapshot pinned at admission; it must route every catalog read
// through that snapshot.
//
// Breaker ordering matters: Precheck fails fast before the query queues,
// but the half-open probe is only booked by Allow once the query holds an
// admission slot, and every successful Allow is balanced by exactly one
// Record of the query's final outcome. Booking the probe before admission
// would strand the breaker half-open forever whenever the would-be probe
// was shed (queue full, queue timeout, canceled while queued, or closed).
func (s *System) serve(ctx context.Context, fn func(gov *governor.Governor, snap *snapshot.Snapshot) error) error {
	if err := s.breaker.Precheck(); err != nil {
		return err
	}
	slot, err := s.adm.Acquire(ctx)
	if err != nil {
		return err
	}
	defer slot.Release()
	if obs := s.admissionObserver(); obs != nil {
		obs(slot.Waited())
	}
	if err := s.breaker.Allow(); err != nil {
		return err
	}
	err = s.attempts(slot, fn)
	s.breaker.Record(err)
	return err
}

// attempts runs the retry loop for one admitted query: the first try plus
// up to MaxAttempts-1 retries of transient (internal) failures, with
// seeded backoff between attempts. It returns the query's final outcome.
func (s *System) attempts(slot *admission.Slot, fn func(gov *governor.Governor, snap *snapshot.Snapshot) error) error {
	snap := s.store.Current()
	policy := s.retryPolicy()
	for attempt := 1; ; attempt++ {
		err := s.replicaGate(&snap)
		if err == nil {
			err = s.attempt(slot.Context(), slot.Waited(), snap, fn)
		}
		if err == nil {
			if attempt > 1 {
				s.retrySuccesses.Add(1)
			}
			return nil
		}
		if !Retryable(err) || attempt >= policy.MaxAttempts {
			return err
		}
		s.retries.Add(1)
		if werr := s.backoff(slot.Context(), policy, attempt); werr != nil {
			return werr
		}
	}
}

// attempt runs fn once under a fresh governor, converting panics into
// ErrInternal so the breaker and retry loop see them as transient
// failures.
func (s *System) attempt(ctx context.Context, queueWait time.Duration, snap *snapshot.Snapshot,
	fn func(gov *governor.Governor, snap *snapshot.Snapshot) error) (err error) {
	defer recovered(&err)
	gov := governor.New(ctx, s.Limits())
	if err := gov.Err(); err != nil {
		return err
	}
	gov.RecordQueueWait(queueWait)
	return fn(gov, snap)
}

// replicaGate enforces the replica staleness contract on the inner system
// of an els.Replica (a no-op everywhere else, including after promotion):
// a quarantined replica rejects the attempt with its divergence error, a
// replica lagging past Limits.MaxReplicaLag rejects with ErrStaleReplica,
// and an admitted attempt re-pins the freshest replayed snapshot — so a
// retry after a stale rejection serves the version the replica caught up
// to, not the one it was behind at.
func (s *System) replicaGate(snap **snapshot.Snapshot) error {
	if s.fol == nil || s.promoted.Load() {
		return nil
	}
	if _, err := s.fol.ReadCheck(s.Limits().MaxReplicaLag); err != nil {
		return err
	}
	*snap = s.store.Current()
	return nil
}

// The retry loop fires on exactly the failures the public Retryable
// predicate names (robust.go): internal errors (transient by definition),
// overload sheds (load-dependent), and stale-replica rejections (replicas
// catch up; each retry re-pins the freshest replayed version). Inside the
// loop only the internal and stale classes can actually occur — admission
// happens before the loop, so an in-slot attempt never sheds — but using
// the shared predicate keeps the in-process loop, the database/sql
// driver, and the wire server's retryable flag classifying identically.
// ErrParse, ErrBadStats, ErrCanceled, ErrBudgetExceeded, ErrClosed, and
// ErrDiverged (sticky until resync) never retry.

// backoff sleeps the capped, jittered exponential delay before retry
// number attempt, aborting early (with a taxonomy error) if the serving
// context dies.
func (s *System) backoff(ctx context.Context, policy RetryPolicy, attempt int) error {
	d := policy.BaseDelay
	if d <= 0 {
		d = time.Millisecond
	}
	for i := 1; i < attempt && i < 20; i++ {
		d *= 2
		if policy.MaxDelay > 0 && d >= policy.MaxDelay {
			break
		}
	}
	if policy.MaxDelay > 0 && d > policy.MaxDelay {
		d = policy.MaxDelay
	}
	s.retryMu.Lock()
	if s.retryRng == nil {
		s.retryRng = rand.New(rand.NewSource(policy.Seed))
	}
	jitter := 0.5 + 0.5*s.retryRng.Float64()
	s.retryMu.Unlock()
	d = time.Duration(float64(d) * jitter)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrCanceled, ctx.Err())
	}
}
