package server

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	els "repro"
	"repro/internal/governor"
	"repro/internal/wire"
)

// TenantConfig describes one tenant's bulkhead: its own System (snapshot
// store, durable directory, plan cache) plus the admission, retry, and
// breaker policies that bound it. Nothing here is shared with any other
// tenant, which is the whole point — one tenant's overload, poison, or
// frozen WAL cannot touch a neighbor.
type TenantConfig struct {
	// Name routes requests; it is also the tenant's durable directory
	// name under Config.DataRoot.
	Name string
	// Limits are the tenant's per-query budgets and admission bounds.
	Limits els.Limits
	// Retry and Breaker are the tenant's opt-in policies.
	Retry   els.RetryPolicy
	Breaker els.BreakerPolicy
	// Bootstrap seeds a freshly created tenant (no tables yet) — demo
	// data, generated workload tables. It does not run for a tenant
	// recovered with tables already in its catalog, so a restart's
	// catalog digest stays comparable to the pre-restart one.
	Bootstrap func(*els.System) error
}

// tenant is one hosted bulkhead: the System plus the server-side health
// tracking around it.
type tenant struct {
	name    string
	sys     *els.System
	durable bool

	// Quarantine state: degraded is the sticky cause once the bulkhead
	// trips (PoisonThreshold consecutive internal errors, or a durability
	// freeze). A degraded tenant fails fast with a typed TenantError and
	// never reaches its System again until the process restarts.
	//lockorder:level 14
	mu             sync.Mutex
	degraded       error
	consecInternal int
	threshold      int

	requests, failures counter
	memSheds           counter // requests the server memory pool refused
	lat, wait          *hist
}

func newTenant(cfg TenantConfig, sys *els.System, durable bool, threshold int) *tenant {
	t := &tenant{
		name:      cfg.Name,
		sys:       sys,
		durable:   durable,
		threshold: threshold,
		lat:       newHist(),
		wait:      newHist(),
	}
	sys.SetAdmissionObserver(func(w time.Duration) { t.wait.observe(w) })
	return t
}

// gate fails fast on a quarantined tenant.
func (t *tenant) gate() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.degraded != nil {
		return &els.TenantError{Tenant: t.name, Reason: "quarantined", Quarantined: true, Cause: t.degraded}
	}
	return nil
}

// record books one request outcome into the bulkhead's health state and
// reports whether this outcome tripped the quarantine.
func (t *tenant) record(err error) (tripped bool) {
	if err != nil {
		t.failures.add(1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.degraded != nil {
		return false
	}
	switch {
	case err == nil:
		t.consecInternal = 0
	case errors.Is(err, els.ErrInternal):
		t.consecInternal++
		if t.consecInternal >= t.threshold {
			t.degraded = err
			return true
		}
	case errors.Is(err, els.ErrDurability):
		// The tenant's durable store froze: every further mutation would
		// fail and the on-disk suffix state is unknown until reopened.
		t.degraded = err
		return true
	default:
		// Parse errors, sheds, budget overruns, cancellations: the
		// tenant itself is healthy.
		t.consecInternal = 0
	}
	return false
}

// serve runs one routed request inside the bulkhead: the quarantine gate,
// the op itself under panic containment, and the health/latency
// accounting around it.
func (t *tenant) serve(ctx context.Context, s *Server, req *wire.Request, resp *wire.Response) error {
	if err := t.gate(); err != nil {
		t.requests.add(1)
		t.failures.add(1)
		return err
	}
	t.requests.add(1)
	start := time.Now()
	err := t.run(ctx, s, req, resp)
	t.lat.observe(time.Since(start))
	if t.record(err) {
		s.event("tenant_quarantined", map[string]any{"tenant": t.name, "cause": err.Error()})
	}
	return err
}

// run executes one op. A panic anywhere in the handler (not just inside
// the System, which recovers its own) is contained here and surfaces as a
// typed internal error — poison degrades the tenant, never the process.
func (t *tenant) run(ctx context.Context, s *Server, req *wire.Request, resp *wire.Response) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = governor.NewInternal(r, debug.Stack())
		}
	}()
	switch req.Op {
	case wire.OpPing:
		resp.Version = t.sys.CatalogVersion()
		return nil
	case wire.OpEstimate:
		algo, err := els.ParseAlgorithm(req.Algo)
		if err != nil {
			return err
		}
		est, err := t.sys.EstimateContext(ctx, req.SQL, algo)
		if err != nil {
			return err
		}
		resp.Estimate = &wire.Estimate{
			Algorithm:      est.Algorithm.String(),
			FinalSize:      est.FinalSize,
			JoinOrder:      est.JoinOrder,
			CatalogVersion: est.CatalogVersion,
			Warnings:       est.Warnings,
		}
		return nil
	case wire.OpQuery:
		algo, err := els.ParseAlgorithm(req.Algo)
		if err != nil {
			return err
		}
		// Reserve the query's working memory against the process pool
		// before it can queue: pool pressure sheds here, typed and
		// retryable, rather than admitting work the process cannot hold.
		release, err := s.pool.acquire(t.name, s.queryReserve(t))
		if err != nil {
			t.memSheds.add(1)
			s.event("mem_shed", map[string]any{"tenant": t.name})
			return err
		}
		defer release()
		res, err := t.sys.QueryContext(ctx, req.SQL, algo)
		if err != nil {
			return err
		}
		resp.Result = &wire.Result{
			Count:          res.Count,
			Columns:        res.Columns,
			Rows:           res.Rows,
			CatalogVersion: res.Estimate.CatalogVersion,
		}
		return nil
	case wire.OpExplain:
		algo, err := els.ParseAlgorithm(req.Algo)
		if err != nil {
			return err
		}
		out, err := t.sys.ExplainContext(ctx, req.SQL, algo)
		if err != nil {
			return err
		}
		resp.Explain = out
		return nil
	case wire.OpDeclare:
		if err := t.sys.DeclareStats(req.Table, req.Rows, req.Distinct); err != nil {
			return err
		}
		// The version acknowledges the mutation: on a durable tenant it
		// is fsynced before DeclareStats returns, so a client that saw
		// this response can expect the version after any restart.
		resp.Version = t.sys.CatalogVersion()
		return nil
	case wire.OpDigest:
		v, d, err := t.sys.CatalogDigest()
		if err != nil {
			return err
		}
		resp.Version, resp.Digest = v, d
		return nil
	case wire.OpFault:
		return t.fault(ctx, s, req)
	default:
		return fmt.Errorf("%w: unknown op %q", els.ErrBadWire, req.Op)
	}
}

// fault is the chaos hook: tenant-targeted failure injection, honored
// only when the server opted in (tests and the chaos fleet).
func (t *tenant) fault(ctx context.Context, s *Server, req *wire.Request) error {
	if !s.cfg.EnableFaultOps {
		return fmt.Errorf("%w: fault ops are not enabled on this server", els.ErrBadWire)
	}
	switch req.Fault {
	case "panic":
		panic(fmt.Sprintf("injected poison for tenant %s", t.name))
	case "stall":
		d := time.Duration(req.StallMillis) * time.Millisecond
		if d <= 0 || d > 5*time.Second {
			d = 50 * time.Millisecond
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return nil
		case <-ctx.Done():
			return fmt.Errorf("%w: %w", els.ErrCanceled, ctx.Err())
		}
	default:
		return fmt.Errorf("%w: unknown fault %q", els.ErrBadWire, req.Fault)
	}
}

// stats snapshots the tenant's slice of the observability document.
func (t *tenant) stats() wire.TenantStats {
	st := t.sys.Stats()
	t.mu.Lock()
	degraded := t.degraded
	t.mu.Unlock()
	ts := wire.TenantStats{
		Tenant:        t.name,
		Durable:       t.durable,
		Degraded:      degraded != nil,
		Requests:      t.requests.load(),
		Failures:      t.failures.load(),
		Robustness:    st.Robustness,
		PlanCache:     st.Cache,
		P50Millis:     t.lat.quantile(0.50).Seconds() * 1000,
		P99Millis:     t.lat.quantile(0.99).Seconds() * 1000,
		P99WaitMillis: t.wait.quantile(0.99).Seconds() * 1000,
	}
	if degraded != nil {
		ts.DegradedReason = degraded.Error()
	}
	return ts
}
