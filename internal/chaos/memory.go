package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	els "repro"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workpool"
)

// MemoryConfig shapes one memory-pressure storm: a deliberately
// under-budgeted "hog" tenant hammers oversized joins while two healthy
// neighbors run a steady light workload on the same server and the same
// process-wide memory pool. The zero value (plus a DataRoot) is a
// CI-sized run.
type MemoryConfig struct {
	// Seed drives every random decision in the fleet.
	Seed int64
	// DataRoot is the durable tenant root (a test temp dir).
	DataRoot string
	// HogWorkers is the hog tenant's client swarm size (default 6 — far
	// past the pool share its reservations fit in, so pool sheds are part
	// of the storm's diet).
	HogWorkers int
	// NeighborWorkers is each neighbor tenant's swarm size (default 2,
	// comfortably inside both the pool share and the admission budget: a
	// neighbor request has no excuse to fail).
	NeighborWorkers int
	// OpsPerWorker is how many queries each swarm client issues
	// (default 12).
	OpsPerWorker int
	// LogW, if non-nil, receives one JSON line per event — the artifact
	// CI attaches to a memory-soak run.
	LogW io.Writer
}

// MemoryReport is the audited outcome of a memory-pressure storm.
type MemoryReport struct {
	// HogOps counts the hog swarm's queries; HogSucceeded the ones that
	// completed, HogShed the ones refused under memory-pool pressure
	// (server-side count), and HogSpilled how many completed queries
	// partitioned at least one hash-join build side to stay in budget.
	HogOps, HogSucceeded int
	HogShed, HogSpilled  uint64
	// NeighborOps counts the neighbor swarms' queries — every one of
	// them must succeed.
	NeighborOps int
	// NeighborP99Millis is the worst neighbor tenant's client-observed
	// p99 round-trip latency during the storm.
	NeighborP99Millis float64
	// Violations lists every contract breach. A clean storm has none.
	Violations []string
}

// Failed reports whether the storm breached any contract.
func (r *MemoryReport) Failed() bool { return len(r.Violations) > 0 }

// memHarness carries the storm's shared state.
type memHarness struct {
	ledger
	cfg MemoryConfig

	// Guarded by ledger.mu.
	hogOps       int
	hogSucceeded int
	neighborOps  int
	neighborLat  []time.Duration
}

// Hog-tenant sizing: the per-query byte budget is far below the join's
// build side, so every completed hog query takes the partition policy, and the
// process pool is sized so the hog swarm's reservations overflow the
// hog's share while the neighbors' light reservations never can.
const (
	memHogBudget = 4 << 10  // per-query MaxMemory of the hog tenant
	memPoolBytes = 48 << 10 // process pool; share = pool / 3 tenants
)

// RunMemoryPressure drives the memory-governance storm end to end: three
// durable tenants behind one wire server share a process-wide memory
// pool; the hog tenant runs oversized hash joins under a tiny per-query
// byte budget with a swarm big enough to overflow its pool share, while
// two neighbor tenants run a steady small workload. The audits:
//
//   - degradation is isolated: the hog sheds (typed, retryable, with a
//     Retry-After hint) and spills, but every neighbor query succeeds
//     and no neighbor is ever shed by the pool or spills;
//   - the budget engages: the hog records pool sheds AND spilled
//     queries — pressure was real, and the partition policy actually ran;
//   - nothing leaks: after the storm the pool holds no reservation, and
//     after the drain the server holds no connection.
//
// The returned error reports a harness malfunction; contract breaches
// land in MemoryReport.Violations.
func RunMemoryPressure(ctx context.Context, cfg MemoryConfig) (*MemoryReport, error) {
	if cfg.HogWorkers <= 0 {
		cfg.HogWorkers = 6
	}
	if cfg.NeighborWorkers <= 0 {
		cfg.NeighborWorkers = 2
	}
	if cfg.OpsPerWorker <= 0 {
		cfg.OpsPerWorker = 12
	}
	if cfg.DataRoot == "" {
		return nil, fmt.Errorf("chaos: RunMemoryPressure needs a DataRoot")
	}
	h := &memHarness{ledger: ledger{logW: cfg.LogW, opTimeout: 15 * time.Second}, cfg: cfg}
	report := &MemoryReport{}

	srv, err := server.Start(ctx, h.memServerConfig())
	if err != nil {
		return nil, fmt.Errorf("chaos: starting server: %w", err)
	}
	addr := srv.Addr()
	h.logEvent(map[string]any{"event": "memory_storm_start", "addr": addr,
		"hog_budget": memHogBudget, "pool": memPoolBytes})

	// The storm: the hog swarm and both neighbor swarms run concurrently,
	// so the neighbors' latencies are measured under live hog pressure.
	onPanic := func(err error) { h.violation(fmt.Sprintf("chaos: fleet goroutine failed: %v", err)) }
	var fleet sync.WaitGroup
	for w := 0; w < cfg.HogWorkers; w++ {
		w := w
		workpool.Go(&fleet, onPanic, func() error { h.hogClient(ctx, addr, w); return nil })
	}
	for ti := 1; ti <= 2; ti++ {
		ti := ti
		for w := 0; w < cfg.NeighborWorkers; w++ {
			w := w
			workpool.Go(&fleet, onPanic, func() error { h.neighborClient(ctx, addr, ti, w); return nil })
		}
	}
	fleet.Wait()

	// Server-side audit: the hog must have been shed by the pool AND have
	// spilled completed queries; the neighbors must show neither.
	st := srv.Stats()
	for _, ts := range st.Tenants {
		switch ts.Tenant {
		case tenantName(0):
			report.HogShed = ts.MemSheds
			report.HogSpilled = ts.SpilledQueries
		default:
			if ts.MemSheds != 0 {
				h.violation(fmt.Sprintf("neighbor %s was shed by the memory pool %d times: the hog's pressure crossed the bulkhead",
					ts.Tenant, ts.MemSheds))
			}
			if ts.SpilledQueries != 0 {
				h.violation(fmt.Sprintf("neighbor %s spilled %d queries despite having no byte budget",
					ts.Tenant, ts.SpilledQueries))
			}
		}
	}
	if report.HogShed == 0 {
		h.violation("the hog was never shed by the memory pool — the pressure valve never engaged")
	}
	if report.HogSpilled == 0 {
		h.violation("no hog query spilled — the byte budget never forced the partition policy")
	}
	if st.MemoryInUse != 0 {
		h.violation(fmt.Sprintf("memory pool still holds %d bytes after the storm: a reservation leaked", st.MemoryInUse))
	}

	drainCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		h.violation(fmt.Sprintf("drain failed: %v", err))
	}

	h.mu.Lock()
	report.HogOps = h.hogOps
	report.HogSucceeded = h.hogSucceeded
	report.NeighborOps = h.neighborOps
	report.NeighborP99Millis = latQuantile(h.neighborLat, 0.99)
	report.Violations = h.violations
	h.mu.Unlock()
	h.logEvent(map[string]any{"event": "memory_storm_done",
		"hog_ops": report.HogOps, "hog_shed": report.HogShed, "hog_spilled": report.HogSpilled,
		"neighbor_ops": report.NeighborOps, "neighbor_p99_ms": report.NeighborP99Millis})
	return report, nil
}

// memServerConfig builds the storm's server: tenant0 is the hog (a tiny
// per-query byte budget and big join tables), tenant1 and tenant2 are
// neighbors with no byte budget and small tables. The pool's per-tenant
// share (pool / 3) admits four hog reservations; the hog swarm is larger,
// so pool sheds are guaranteed, while a neighbor's default reservation
// (share / 4) times its small swarm always fits.
func (h *memHarness) memServerConfig() server.Config {
	cfg := server.Config{
		Addr:        "127.0.0.1:0",
		DataRoot:    h.cfg.DataRoot,
		IdleTimeout: 10 * time.Second,
		MemoryPool:  memPoolBytes,
		LogW:        h.cfg.LogW,
	}
	mkRows := func(n, dom int) [][]int64 {
		rows := make([][]int64, n)
		for r := range rows {
			rows[r] = []int64{int64(r % dom), int64(r % 7)}
		}
		return rows
	}
	for i := 0; i < 3; i++ {
		tc := server.TenantConfig{
			Name: tenantName(i),
			Limits: els.Limits{
				Timeout:       10 * time.Second,
				MaxConcurrent: 2,
				MaxQueue:      16,
				QueueTimeout:  5 * time.Second,
			},
		}
		if i == 0 {
			// The hog: a byte budget its own join cannot fit (so it
			// spills) that doubles as its pool reservation (so a swarm of
			// them overflows the share and sheds).
			tc.Limits.MaxMemory = memHogBudget
			tc.Bootstrap = func(sys *els.System) error {
				if err := sys.LoadTable("H1", []string{"k", "v"}, mkRows(900, 40)); err != nil {
					return err
				}
				return sys.LoadTable("H2", []string{"k", "v"}, mkRows(1100, 40))
			}
		} else {
			tc.Bootstrap = func(sys *els.System) error {
				if err := sys.LoadTable("R", []string{"a", "b"}, mkRows(100, 10)); err != nil {
					return err
				}
				return sys.LoadTable("S", []string{"a", "c"}, mkRows(150, 10))
			}
		}
		cfg.Tenants = append(cfg.Tenants, tc)
	}
	return cfg
}

// hogClient hammers the hog tenant with the oversized join. A completed
// query and a typed, retryable pressure shed are both acceptable
// outcomes; anything else is a violation.
func (h *memHarness) hogClient(ctx context.Context, addr string, w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 500 + int64(w)))
	name := tenantName(0)
	cl := h.dial(ctx, addr)
	if cl == nil {
		return
	}
	defer func() { cl.Close() }()
	const hogSQL = "SELECT COUNT(*) FROM H1, H2 WHERE H1.k = H2.k"
	for i := 0; i < h.cfg.OpsPerWorker; i++ {
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: name, SQL: hogSQL})
		h.mu.Lock()
		h.hogOps++
		if err == nil {
			h.hogSucceeded++
		}
		h.mu.Unlock()
		if err != nil {
			var remote *wire.RemoteError
			switch {
			case errors.As(err, &remote) && errors.Is(err, els.ErrOverloaded):
				// A pool (or admission) shed: must be flagged retryable
				// and carry a Retry-After hint.
				if !remote.Wire.Retryable {
					h.violation("hog shed not flagged retryable")
				}
				if remote.RetryAfter() <= 0 {
					h.violation("hog shed carries no Retry-After hint")
				}
			case errors.Is(err, els.ErrMemory):
				// A hard byte-budget failure is typed and acceptable too
				// (sort-merge scratch under a tiny budget).
			default:
				h.violation(fmt.Sprintf("hog query failed outside the memory taxonomy: %v", err))
			}
			if cl.Broken() {
				if cl = h.redial(ctx, addr, cl); cl == nil {
					return
				}
			}
		}
		pause(ctx.Done(), time.Duration(rng.Intn(2))*time.Millisecond)
	}
}

// neighborClient runs tenant ti's steady light workload. Every query must
// succeed: the hog's pressure belongs to the hog.
func (h *memHarness) neighborClient(ctx context.Context, addr string, ti, w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + int64(ti)*100 + int64(w)))
	name := tenantName(ti)
	cl := h.dial(ctx, addr)
	if cl == nil {
		return
	}
	defer func() { cl.Close() }()
	const neighborSQL = "SELECT COUNT(*) FROM R, S WHERE R.a = S.a"
	for i := 0; i < h.cfg.OpsPerWorker; i++ {
		start := time.Now()
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: name, SQL: neighborSQL})
		lat := time.Since(start)
		h.mu.Lock()
		h.neighborOps++
		h.neighborLat = append(h.neighborLat, lat)
		h.mu.Unlock()
		if err != nil {
			h.violation(fmt.Sprintf("neighbor %s query failed under hog pressure: %v", name, err))
			if cl.Broken() {
				if cl = h.redial(ctx, addr, cl); cl == nil {
					return
				}
			}
		}
		pause(ctx.Done(), time.Duration(rng.Intn(3)+1)*time.Millisecond)
	}
}

// latQuantile returns the q-quantile of the observed latencies in
// milliseconds (0 when none were observed).
func latQuantile(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(float64(len(s)-1) * q)
	return float64(s[idx].Microseconds()) / 1000
}
