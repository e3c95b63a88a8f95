package main

import (
	"bytes"
	"context"
	"database/sql"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	els "repro"
	_ "repro/driver" // registers the "els" database/sql driver
	"repro/internal/admission"
	"repro/internal/catalog"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/snapshot"
	"repro/internal/wire"
	"repro/internal/workpool"
)

// Kinds of serve_mixed operation, and their share of a connection's mix in
// per mille.
const (
	opEstimate = iota
	opQuery
	opExplain
	opDeclare
	numOpKinds
)

var opPerMille = [numOpKinds]int{opEstimate: 800, opQuery: 140, opExplain: 40, opDeclare: 20}

// serveMaxTables bounds the ESTIMATE pool to 3–5-table statements, whose
// plan-cache miss costs a few hundred microseconds: with 3–8 tables the
// misses after each DECLARE (up to 10 ms apiece) would be nine tenths of
// the workload's time and serve_mixed would measure the optimizer again.
const serveMaxTables = 5

var opKindNames = [numOpKinds]string{"estimate", "query", "explain", "declare"}

// serveOp is one scheduled operation: its kind and the pool index of its
// statement (unused for DECLARE).
type serveOp struct {
	kind, idx int
}

// serveClient is one closed-loop connection.
type serveClient struct {
	tenant   string
	table    string // the statistics-only table this connection re-declares
	conn     *sql.Conn
	schedule []serveOp

	declared float64 // rows of the last acknowledged DECLARE
	version  int64   // highest catalog version this connection has seen
	lat      []float64
	byKind   [numOpKinds][]float64
}

// serveWorkload is serve_mixed: the server in-process on loopback with
// durable tenants, clients through database/sql and the repro driver.
type serveWorkload struct {
	e *env

	data     dataset
	estPool  []stmt     // ESTIMATE and EXPLAIN statements
	estRef   []float64  // their ELS final sizes on the bootstrap catalog
	queries  []execStmt // executed SELECTs
	querySQL []string
	queryRef []int64
	qerr     []float64

	dataRoot string
	srv      *server.Server
	tenants  []string
	dbs      []*sql.DB
	clients  []*serveClient
	base     []els.CacheStats

	// Filled while the server lives, read by layers after teardown.
	stats         *wire.ServerStats
	cacheHits     uint64
	cacheMisses   uint64
	cacheEvicts   uint64
	walPerDeclare float64
	recoveryMS    float64
	byKind        [numOpKinds][]float64
	respBytes     []float64
	dispatch      []float64
}

func newServeMixed(e *env) workload { return &serveWorkload{e: e} }

// connections is C = min(nproc, 4): the clients share the box with the server.
func (w *serveWorkload) connections() int { return w.e.cfg.procs }

func (w *serveWorkload) setup() error {
	cfg := w.e.cfg
	c := w.connections()
	w.tenants = []string{"t0", "t1"}

	// One dataset, loaded into every tenant: the planning catalog, one
	// re-declarable table per connection, Section 8 rows.
	w.data = dataset{Stats: planCatalog(cfg.seed), Data: execData(cfg.seed, cfg.sz.ServeScale, false)}
	for i := 0; i < c; i++ {
		w.data.Stats = append(w.data.Stats, statsTable{Name: fmt.Sprintf("W%d", i), Rows: 1000, Distinct: map[string]float64{"a": 100}})
	}
	w.estPool = planStatements(cfg.seed, w.data.Stats[:planTables], hotPool, serveMaxTables)
	k := func(n int) int64 { return int64(n / cfg.sz.ServeScale) }
	w.queries = []execStmt{
		{Name: "sec8", Tables: []string{"S", "M", "B", "G"}, FilterTable: "S", Less: k(100)},
		{Name: "scan_g", Tables: []string{"G"}, FilterTable: "G", FilterCol: 1, Less: k(10000)},
		{Name: "join_mb", Tables: []string{"M", "B"}, FilterTable: "M", FilterCol: 1, Less: k(5000)},
		{Name: "join_sm", Tables: []string{"S", "M"}},
		{Name: "project_b", Kind: kindProject, Tables: []string{"B"}, FilterTable: "B", FilterCol: 1, Less: k(1000)},
		{Name: "scan_m", Tables: []string{"M"}, FilterTable: "M", Less: k(2000)},
	}
	w.querySQL, w.queryRef = nil, nil
	for _, q := range w.queries {
		w.querySQL = append(w.querySQL, q.sql(&w.data))
		w.queryRef = append(w.queryRef, q.reference(&w.data))
	}

	var err error
	if w.dataRoot, err = os.MkdirTemp(w.e.tmp, "data-"); err != nil {
		return err
	}
	limits := serialLimits
	limits.MaxConcurrent, limits.MaxQueue = 2*c, 2*c // sized so nothing sheds: a shed is a failure
	var tcs []server.TenantConfig
	for _, t := range w.tenants {
		tcs = append(tcs, server.TenantConfig{Name: t, Limits: limits, Bootstrap: func(sys *els.System) error {
			_, _, err := w.data.load(sys)
			return err
		}})
	}
	// Durable tenants with the default flush policy: fsync on every WAL record.
	w.srv, err = server.Start(w.e.ctx, server.Config{Addr: "127.0.0.1:0", DataRoot: w.dataRoot, Tenants: tcs})
	if err != nil {
		return err
	}

	// References, from the bootstrap catalog (DECLAREs only touch the W
	// tables, which no statement reads, so they stay valid all run).
	sys := w.srv.System(w.tenants[0])
	w.estRef = make([]float64, len(w.estPool))
	for i, s := range w.estPool {
		est, err := sys.Estimate(s.SQL, els.AlgorithmELS)
		if err != nil {
			return err
		}
		w.estRef[i] = est.FinalSize
	}
	w.qerr = w.qerr[:0]
	for i, q := range w.queries {
		if !q.join() {
			continue
		}
		est, err := sys.Estimate(w.querySQL[i], els.AlgorithmELS)
		if err != nil {
			return err
		}
		w.qerr = append(w.qerr, qerror(est.FinalSize, float64(w.queryRef[i])))
	}

	ctx := w.e.ctx
	for _, t := range w.tenants {
		db, err := sql.Open("els", "els://"+w.srv.Addr()+"/"+t)
		if err != nil {
			return err
		}
		w.dbs = append(w.dbs, db)
	}
	for i := 0; i < c; i++ {
		conn, err := w.dbs[i%len(w.dbs)].Conn(ctx)
		if err != nil {
			return err
		}
		w.clients = append(w.clients, &serveClient{
			tenant: w.tenants[i%len(w.tenants)], table: fmt.Sprintf("W%d", i), conn: conn,
			schedule: serveSchedule(subSeed(cfg.seed, fmt.Sprintf("serve-conn-%d", i)), cfg.sz.ServeOps),
			declared: 1000,
		})
	}
	// Warm-up: a quarter of every connection's schedule, concurrently.
	w.runClients(func(cl *serveClient) []serveOp { return cl.schedule[:len(cl.schedule)/4] })
	for _, cl := range w.clients {
		cl.lat, cl.byKind = nil, [numOpKinds][]float64{}
	}
	w.base = w.base[:0]
	for _, t := range w.tenants {
		w.base = append(w.base, w.srv.System(t).CacheStats())
	}
	return nil
}

// serveSchedule lays out one connection's n operations: the kinds in their
// exact shares, shuffled; ESTIMATE and EXPLAIN pick from the pool on a
// Zipf(1.5) schedule, SELECTs uniformly.
func serveSchedule(seed int64, n int) []serveOp {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.5, 1, hotPool-1)
	out := make([]serveOp, 0, n)
	for kind := numOpKinds - 1; kind > opEstimate; kind-- {
		for i := 0; i < n*opPerMille[kind]/1000; i++ {
			out = append(out, serveOp{kind: kind})
		}
	}
	for len(out) < n {
		out = append(out, serveOp{kind: opEstimate})
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		switch out[i].kind {
		case opEstimate, opExplain:
			out[i].idx = int(zipf.Uint64())
		case opQuery:
			out[i].idx = rng.Intn(1 << 30) // reduced modulo the query pool when issued
		}
	}
	return out
}

// runClients runs every connection's share of ops concurrently and waits;
// it returns the wall time of the slowest.
func (w *serveWorkload) runClients(ops func(*serveClient) []serveOp) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, cl := range w.clients {
		cl := cl
		workpool.Go(&wg, func(err error) { w.e.fail.add("connection to %s: %v", cl.tenant, err) }, func() error {
			for _, op := range ops(cl) {
				t0 := time.Now()
				if w.issue(cl, op) {
					us := float64(time.Since(t0).Nanoseconds()) / 1e3
					cl.lat = append(cl.lat, us)
					cl.byKind[op.kind] = append(cl.byKind[op.kind], us)
				}
			}
			return nil
		})
	}
	wg.Wait()
	return time.Since(start)
}

// issue sends one operation through database/sql, drains the reply and
// verifies it.
func (w *serveWorkload) issue(cl *serveClient, op serveOp) bool {
	ctx := w.e.ctx
	fail := func(format string, args ...any) bool {
		w.e.fail.add(cl.tenant+" "+opKindNames[op.kind]+": "+format, args...)
		return false
	}
	seen := func(version int64) bool {
		if version < cl.version {
			return fail("catalog version went back from %d to %d", cl.version, version)
		}
		cl.version = version
		return true
	}
	switch op.kind {
	case opEstimate:
		var algo, order string
		var size float64
		var version int64
		if err := cl.conn.QueryRowContext(ctx, "ESTIMATE "+w.estPool[op.idx].SQL).Scan(&algo, &size, &version, &order); err != nil {
			return fail("%v", err)
		}
		if size != w.estRef[op.idx] {
			return fail("%q: final size %g, reference %g", w.estPool[op.idx].SQL, size, w.estRef[op.idx])
		}
		return seen(version)
	case opExplain:
		var plan string
		if err := cl.conn.QueryRowContext(ctx, "EXPLAIN "+w.estPool[op.idx].SQL).Scan(&plan); err != nil {
			return fail("%v", err)
		}
		if !strings.Contains(plan, "estimated result size") {
			return fail("%q: no plan in %q", w.estPool[op.idx].SQL, plan)
		}
	case opQuery:
		i := op.idx % len(w.queries)
		rows, err := cl.conn.QueryContext(ctx, w.querySQL[i])
		if err != nil {
			return fail("%v", err)
		}
		defer rows.Close()
		var got int64
		if w.queries[i].Kind == kindProject {
			for rows.Next() {
				got++
			}
			if want := min(w.queryRef[i], els.MaxRows); got != want {
				return fail("%s: %d rows, want %d", w.queries[i].Name, got, want)
			}
		} else {
			if !rows.Next() {
				return fail("%s: no count row: %v", w.queries[i].Name, rows.Err())
			}
			if err := rows.Scan(&got); err != nil {
				return fail("%v", err)
			}
			if got != w.queryRef[i] {
				return fail("%s: counted %d, reference %d", w.queries[i].Name, got, w.queryRef[i])
			}
		}
		if err := rows.Err(); err != nil {
			return fail("%v", err)
		}
	case opDeclare:
		next := cl.declared + 1
		res, err := cl.conn.ExecContext(ctx, fmt.Sprintf("DECLARE STATS %s %g a=100", cl.table, next))
		if err != nil {
			return fail("%v", err)
		}
		cl.declared = next // acknowledged: must survive the restart
		version, _ := res.LastInsertId()
		if version <= cl.version {
			return fail("acknowledged at version %d, not above %d", version, cl.version)
		}
		cl.version = version
	}
	return true
}

func (w *serveWorkload) repeat() repeatResult {
	for _, cl := range w.clients {
		cl.lat = cl.lat[:0]
	}
	wall := w.runClients(func(cl *serveClient) []serveOp { return cl.schedule })
	var res repeatResult
	res.wall = wall
	for _, cl := range w.clients {
		res.lat = append(res.lat, cl.lat...)
	}
	return res
}

// tracedRepeat walks connection 0's schedule alone. Every read operation
// is issued three ways — through database/sql, through a bare wire.Client,
// and in process on the tenant's System — so that the differences are the
// driver's and the server's own cost; then its stages are replayed like on
// the in-process workloads, and its real request and response go through
// the codec and the framing once more on a buffer.
func (w *serveWorkload) tracedRepeat(tr *tracer) repeatResult {
	ctx := w.e.ctx
	cl := w.clients[0]
	sys := w.srv.System(cl.tenant)
	cat, err := w.data.catalog()
	if err != nil {
		w.e.fail.add("building the replay catalog: %v", err)
		return repeatResult{}
	}
	raw, err := wire.Dial(ctx, w.srv.Addr())
	if err != nil {
		w.e.fail.add("dialing the bare client: %v", err)
		return repeatResult{}
	}
	defer raw.Close()
	rp := newReplayer(ctx, newTracer(), cat, serialLimits, "")
	rp.bumpVersion(sys.CatalogVersion())

	return timedLoop(len(cl.schedule), func(k int) bool {
		op := cl.schedule[k]
		if op.kind == opDeclare {
			t0 := time.Now()
			ok := w.issue(cl, op)
			tr.record(k, "driver.exec", "", t0, time.Now(), nil)
			rp.bumpVersion(sys.CatalogVersion())
			return ok
		}
		t0 := time.Now()
		ok := w.issue(cl, op)
		tr.record(k, "driver.query", "", t0, time.Now(), nil)

		req := &wire.Request{Tenant: cl.tenant}
		root, execute := spanEstimate, false
		switch op.kind {
		case opEstimate:
			req.Op, req.SQL = wire.OpEstimate, w.estPool[op.idx].SQL
		case opExplain:
			req.Op, req.SQL = wire.OpExplain, w.estPool[op.idx].SQL
		case opQuery:
			req.Op, req.SQL = wire.OpQuery, w.querySQL[op.idx%len(w.queries)]
			root, execute = spanQuery, true
		}
		t0 = time.Now()
		resp, err := raw.Do(ctx, req)
		t1 := time.Now()
		if err != nil {
			w.e.fail.add("bare client %s: %v", req.Op, err)
			return false
		}
		do := tr.record(k, "wire.client_do", "driver.query", t0, t1, nil)

		t0 = time.Now()
		switch op.kind {
		case opEstimate:
			_, err = sys.Estimate(req.SQL, els.AlgorithmELS)
		case opExplain:
			_, err = sys.Explain(req.SQL, els.AlgorithmELS)
		case opQuery:
			_, err = sys.Query(req.SQL, els.AlgorithmELS)
		}
		t1 = time.Now()
		if err != nil {
			w.e.fail.add("in-process %s: %v", req.Op, err)
			return false
		}
		inProcess := tr.record(k, root, "wire.client_do", t0, t1, nil)
		w.dispatch = append(w.dispatch, float64((do-inProcess).Nanoseconds())/1e3)

		// The in-process call found the plan cached (the two calls before
		// it saw to that), so replay the cached path: a replay that missed
		// only filled the replayer's cache and is discarded.
		rp.tr = tr
		mark := len(tr.spans)
		hit, err := rp.replay(k, root, req.SQL, els.AlgorithmELS, execute)
		if err == nil && !hit {
			tr.spans = tr.spans[:mark]
			_, err = rp.replay(k, root, req.SQL, els.AlgorithmELS, execute)
		}
		if err != nil {
			w.e.fail.add("replay %q: %v", req.SQL, err)
			return false
		}
		if err := w.codecSpans(tr, k, req, resp); err != nil {
			w.e.fail.add("codec replay: %v", err)
			return false
		}
		if k%16 == 0 {
			t0 = time.Now()
			_, err := raw.Do(ctx, &wire.Request{Op: wire.OpPing, Tenant: cl.tenant})
			t1 = time.Now()
			if err != nil {
				w.e.fail.add("ping: %v", err)
				return false
			}
			tr.record(k, "wire.ping", "", t0, t1, nil)
		}
		return ok
	})
}

// codecSpans pushes one real request/response pair through the JSON codec
// and through the frame writer and reader over a buffer, both directions.
func (w *serveWorkload) codecSpans(tr *tracer, id int, req *wire.Request, resp *wire.Response) error {
	t0 := time.Now()
	reqBytes, err := wire.EncodeRequest(req)
	if err == nil {
		_, err = wire.DecodeRequest(reqBytes)
	}
	var respBytes []byte
	if err == nil {
		respBytes, err = wire.EncodeResponse(resp)
	}
	if err == nil {
		_, err = wire.DecodeResponse(respBytes)
	}
	t1 := time.Now()
	if err != nil {
		return err
	}
	tr.record(id, "wire.codec", "wire.client_do", t0, t1, map[string]int64{"resp_bytes": int64(len(respBytes))})
	w.respBytes = append(w.respBytes, float64(len(respBytes)))

	var buf bytes.Buffer
	t0 = time.Now()
	for _, payload := range [][]byte{reqBytes, respBytes} {
		if err = wire.WriteFrame(&buf, payload); err == nil {
			_, err = wire.ReadFrame(&buf, 0)
		}
		if err != nil {
			return err
		}
	}
	tr.record(id, "wire.frame", "wire.client_do", t0, time.Now(), nil)
	return nil
}

func (w *serveWorkload) qerrors() []float64 { return w.qerr }

// teardown closes the clients, drains the server, then reopens every
// tenant directory the way a restart would and checks that each
// connection's last acknowledged DECLARE is there.
func (w *serveWorkload) teardown() error {
	for _, cl := range w.clients {
		for kind := range cl.byKind {
			w.byKind[kind] = append(w.byKind[kind], cl.byKind[kind]...)
		}
		cl.conn.Close()
	}
	for _, db := range w.dbs {
		db.Close()
	}
	w.stats = w.srv.Stats()
	declares := 0
	var walBytes int64
	for i, t := range w.tenants {
		sys := w.srv.System(t)
		st := sys.CacheStats()
		w.cacheHits += st.Hits - w.base[i].Hits
		w.cacheMisses += st.Misses - w.base[i].Misses
		w.cacheEvicts += st.Evictions - w.base[i].Evictions
		walBytes += sys.DurabilityStats().WALBytes
	}
	for _, cl := range w.clients {
		declares += int(cl.declared) - 1000
	}
	if declares > 0 {
		// WALBytes counts from the bootstrap on; the bootstrap's share is
		// the same every run and small next to the DECLAREs'.
		w.walPerDeclare = float64(walBytes) / float64(declares)
	}
	ctx, cancel := context.WithTimeout(w.e.ctx, 30*time.Second)
	defer cancel()
	if err := w.srv.Shutdown(ctx); err != nil {
		return err
	}
	var recovery []float64
	for _, t := range w.tenants {
		start := time.Now()
		sys, err := els.Open(filepath.Join(w.dataRoot, t))
		if err != nil {
			return fmt.Errorf("reopening tenant %s: %w", t, err)
		}
		recovery = append(recovery, time.Since(start).Seconds()*1e3)
		for _, cl := range w.clients {
			if cl.tenant != t {
				continue
			}
			if got, err := sys.TableCard(cl.table); err != nil || got != cl.declared {
				w.e.fail.add("%s after restart: table %s has %g rows (%v), last acknowledged DECLARE said %g", t, cl.table, got, err, cl.declared)
			}
		}
		if err := sys.Close(ctx); err != nil {
			return err
		}
	}
	w.recoveryMS = median(recovery)
	return os.RemoveAll(w.dataRoot)
}

func (w *serveWorkload) layers(tr *tracer, m map[string]float64) {
	if total := w.cacheHits + w.cacheMisses; total > 0 {
		m["plancache.hit_rate"] = float64(w.cacheHits) / float64(total)
		m["plancache.evictions"] = float64(w.cacheEvicts) / float64(total)
	}
	var shed uint64
	var wait float64
	for _, ts := range w.stats.Tenants {
		shed += ts.ShedQueueFull + ts.ShedQueueTimeout + ts.MemSheds
		wait = max(wait, ts.P99WaitMillis)
	}
	m["server.shed_count"] = float64(shed)
	m["admission.wait_p99_ms"] = wait
	m["durable.wal_bytes_per_declare"] = w.walPerDeclare
	m["durable.recovery_ms"] = w.recoveryMS
	m["server.estimate_p50_us"] = median(w.byKind[opEstimate])
	m["server.query_p50_us"] = median(w.byKind[opQuery])
	m["server.explain_p50_us"] = median(w.byKind[opExplain])
	m["server.declare_p50_us"] = median(w.byKind[opDeclare])
	var all []float64
	for _, lat := range w.byKind {
		all = append(all, lat...)
	}
	m["server.rtt_p99_us"] = percentile(sortedCopy(all), 99)

	self := tr.selfTimes()
	ping := medianUS(self["wire.ping"])
	m["wire.ping_rtt_us"] = ping
	m["wire.codec_us"] = medianUS(self["wire.codec"])
	m["wire.frame_us"] = medianUS(self["wire.frame"])
	m["wire.resp_bytes_p50"] = median(w.respBytes)
	m["driver.overhead_us"] = medianUS(self["driver.query"])
	m["server.dispatch_us"] = median(w.dispatch) - ping

	iters := w.e.cfg.sz.ProbeIters
	c := w.connections()
	m["admission.acquire_release_us"] = probeAdmission(w.e.ctx, admission.Config{MaxConcurrent: 2 * c, MaxQueue: 2 * c}, iters)
	logUS, err := probeDurable(filepath.Join(w.e.tmp, "probe-wal"), w.data.Stats, min(iters, 50))
	if err != nil {
		w.e.fail.add("durable probe: %v", err)
	}
	m["durable.log_mutation_us"] = logUS
	m["snapshot.mutate_us"] = probeSnapshot(w.data.Stats, iters)
}

// probeAdmission times an uncontended Acquire + Release.
func probeAdmission(ctx context.Context, cfg admission.Config, iters int) float64 {
	ctl := admission.New(cfg)
	times := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		slot, err := ctl.Acquire(ctx)
		if err != nil {
			return 0
		}
		slot.Release()
		times = append(times, time.Since(t0))
	}
	return medianUS(times)
}

// statsCatalog is a statistics-only catalog of tables.
func statsCatalog(tables []statsTable) *catalog.Catalog {
	cat := catalog.New()
	for _, t := range tables {
		cat.MustAddTable(catalog.SimpleTable(t.Name, t.Rows, t.Distinct))
	}
	return cat
}

// probeDurable times Store.LogMutation — delta encoding, WAL append, fsync
// — for the mutation a DECLARE makes, on a store of its own.
func probeDurable(dir string, tables []statsTable, iters int) (float64, error) {
	store, err := durable.Open(dir)
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	defer store.Close()
	prev := statsCatalog(tables)
	times := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		next := prev.Clone()
		next.MustAddTable(catalog.SimpleTable("W0", float64(2000+i), map[string]float64{"a": 100}))
		t0 := time.Now()
		if err := store.LogMutation(store.Version()+uint64(i)+1, prev, next); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0))
		prev = next
	}
	return medianUS(times), nil
}

// probeSnapshot times the in-memory copy-on-write publish of the same
// mutation, with no durability hook.
func probeSnapshot(tables []statsTable, iters int) float64 {
	st := snapshot.NewStore(statsCatalog(tables))
	times := make([]time.Duration, 0, iters)
	for i := 0; i < iters; i++ {
		t0 := time.Now()
		err := st.Mutate(func(cat *catalog.Catalog) error {
			return cat.AddTable(catalog.SimpleTable("W0", float64(2000+i), map[string]float64{"a": 100}))
		})
		if err != nil {
			return 0
		}
		times = append(times, time.Since(t0))
	}
	return medianUS(times)
}
