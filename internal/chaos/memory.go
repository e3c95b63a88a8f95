package chaos

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	els "repro"
	"repro/internal/executor"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/wire"
)

// Hog-tenant sizing: the per-query byte budget is far below the join's
// build side, so every completed hog query takes the partition policy, and the
// process pool is sized so the hog swarm's reservations overflow the
// hog's share while the neighbors' light reservations never can.
const (
	memHogBudget = 4 << 10  // per-query MaxMemory of the hog tenant
	memPoolBytes = 48 << 10 // process pool; share = pool / 3 tenants
	// neighborWorkers is each neighbor tenant's swarm size, comfortably
	// inside both the pool share and the admission budget: a neighbor
	// request has no excuse to fail.
	neighborWorkers = 2
	// memJoinStall is how long every join of the storm stalls before it
	// runs, so each admitted hog query holds its pool reservation that long
	// whatever the executor's speed.
	memJoinStall = 20 * time.Millisecond
)

// RunMemoryPressure drives the memory-governance storm end to end: three
// durable tenants behind one wire server share a process-wide memory
// pool; the hog tenant runs oversized hash joins under a tiny per-query
// byte budget with a swarm (Workers) big enough to overflow its pool
// share, while two neighbor tenants run a steady small workload. The
// audits:
//
//   - degradation is isolated: the hog sheds (typed, retryable, with a
//     Retry-After hint) and spills, but every neighbor query succeeds
//     and no neighbor is ever shed by the pool or spills;
//   - the budget engages: the hog records pool sheds AND spilled
//     queries — pressure was real, and the partition policy actually ran;
//   - nothing leaks: after the storm the pool holds no reservation, and
//     after the drain the server holds no connection.
func RunMemoryPressure(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: RunMemoryPressure needs a Dir")
	}
	cfg.Workers = or(cfg.Workers, 6)
	cfg.Ops = or(cfg.Ops, 12)
	h := &wireStorm{ledger: ledger{logW: cfg.LogW, opTimeout: 15 * time.Second}, cfg: cfg}

	srv, err := server.Start(ctx, memServerConfig(cfg))
	if err != nil {
		return nil, fmt.Errorf("chaos: starting server: %w", err)
	}
	addr := srv.Addr()
	h.logEvent(map[string]any{"event": "memory_storm_start", "addr": addr,
		"hog_budget": memHogBudget, "pool": memPoolBytes})

	// The storm: the hog swarm and both neighbor swarms run concurrently,
	// so the neighbors' latencies are measured under live hog pressure.
	// Every join stalls first, so the hog's reservations overlap: sheds do
	// not depend on how long an oversized join happens to take.
	faultinject.Enable(executor.PointJoin, faultinject.Fault{Delay: memJoinStall})
	h.fleet(cfg.Workers+2*neighborWorkers, func(i int) {
		if i < cfg.Workers {
			h.hogClient(ctx, addr, i)
			return
		}
		i -= cfg.Workers
		h.neighborClient(ctx, addr, 1+i/neighborWorkers, i%neighborWorkers)
	})
	faultinject.Disable(executor.PointJoin)

	// Server-side audit: the hog must have been shed by the pool AND have
	// spilled completed queries; the neighbors must show neither.
	st := srv.Stats()
	neighborP99 := 0.0
	for _, ts := range st.Tenants {
		if ts.Tenant == tenantName(0) {
			h.count("hog_shed", int(ts.MemSheds))
			h.count("hog_spilled", int(ts.SpilledQueries))
			continue
		}
		if ts.MemSheds != 0 {
			h.violationf("neighbor %s was shed by the memory pool %d times: the hog's pressure crossed the bulkhead",
				ts.Tenant, ts.MemSheds)
		}
		if ts.SpilledQueries != 0 {
			h.violationf("neighbor %s spilled %d queries despite having no byte budget", ts.Tenant, ts.SpilledQueries)
		}
		neighborP99 = max(neighborP99, ts.P99Millis)
	}
	if h.counted("hog_shed") == 0 {
		h.violationf("the hog was never shed by the memory pool — the pressure valve never engaged")
	}
	if h.counted("hog_spilled") == 0 {
		h.violationf("no hog query spilled — the byte budget never forced the partition policy")
	}
	if st.MemoryInUse != 0 {
		h.violationf("memory pool still holds %d bytes after the storm: a reservation leaked", st.MemoryInUse)
	}
	if err := within(ctx, srv.Shutdown); err != nil {
		h.violationf("drain failed: %v", err)
	}

	rep := h.report()
	h.logEvent(map[string]any{"event": "memory_storm_done", "counts": rep.Counts, "neighbor_p99_ms": neighborP99})
	return rep, nil
}

// memServerConfig builds the storm's server: tenant0 is the hog (a tiny
// per-query byte budget and big join tables), tenant1 and tenant2 are
// neighbors with no byte budget and small tables. The pool's per-tenant
// share (pool / 3) admits four hog reservations; the hog swarm is larger
// and every join stalls memJoinStall, so pool sheds are guaranteed, while a
// neighbor's default reservation (share / 4) times its small swarm always
// fits.
func memServerConfig(cfg Config) server.Config {
	lim := els.Limits{
		Timeout:       10 * time.Second,
		MaxConcurrent: 2,
		MaxQueue:      16,
		QueueTimeout:  5 * time.Second,
	}
	sc := wireConfig(cfg, lim, func(i int, sys *els.System) error {
		if i != 0 {
			return seedRS(sys, 100, 150)
		}
		if err := loadTable(sys, "H1", []string{"k", "v"}, 900, 40); err != nil {
			return err
		}
		return loadTable(sys, "H2", []string{"k", "v"}, 1100, 40)
	})
	// The hog: a byte budget its own join cannot fit (so it spills) that
	// doubles as its pool reservation (so a swarm of them overflows the
	// share and sheds).
	sc.Tenants[0].Limits.MaxMemory = memHogBudget
	sc.IdleTimeout = 10 * time.Second
	sc.MemoryPool = memPoolBytes
	return sc
}

// hogClient hammers the hog tenant with the oversized join. A completed
// query and a typed, retryable pressure shed are both acceptable
// outcomes; anything else is a violation.
func (h *wireStorm) hogClient(ctx context.Context, addr string, w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 500 + int64(w)))
	name := tenantName(0)
	cl := h.dial(ctx, addr)
	if cl == nil {
		return
	}
	defer func() { cl.Close() }()
	const hogSQL = "SELECT COUNT(*) FROM H1, H2 WHERE H1.k = H2.k"
	for i := 0; i < h.cfg.Ops; i++ {
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: name, SQL: hogSQL})
		h.count("hog_ops", 1)
		switch {
		case err == nil:
			h.count("hog_succeeded", 1)
		case h.shed("hog", err):
			// A pool (or admission) shed, checked for its retryable flag
			// and Retry-After hint.
		case errors.Is(err, els.ErrMemory):
			// A hard byte-budget failure is typed and acceptable too
			// (sort-merge scratch under a tiny budget).
		default:
			h.violationf("hog query failed outside the memory taxonomy: %v", err)
		}
		if err != nil && cl.Broken() {
			if cl = h.redial(ctx, addr, cl); cl == nil {
				return
			}
		}
		pause(ctx.Done(), time.Duration(rng.Intn(2))*time.Millisecond)
	}
}

// neighborClient runs tenant ti's steady light workload. Every query must
// succeed: the hog's pressure belongs to the hog.
func (h *wireStorm) neighborClient(ctx context.Context, addr string, ti, w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + int64(ti)*100 + int64(w)))
	name := tenantName(ti)
	cl := h.dial(ctx, addr)
	if cl == nil {
		return
	}
	defer func() { cl.Close() }()
	const neighborSQL = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	for i := 0; i < h.cfg.Ops; i++ {
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: name, SQL: neighborSQL})
		h.count("neighbor_ops", 1)
		if err != nil {
			h.violationf("neighbor %s query failed under hog pressure: %v", name, err)
			if cl.Broken() {
				if cl = h.redial(ctx, addr, cl); cl == nil {
					return
				}
			}
		}
		pause(ctx.Done(), time.Duration(rng.Intn(3)+1)*time.Millisecond)
	}
}
