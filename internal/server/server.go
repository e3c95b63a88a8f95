// Package server is the multi-tenant wire server behind cmd/elsserve: a
// stdlib-only TCP front end multiplexing per-tenant els.Systems behind
// the length-prefixed binary frame protocol of internal/wire.
//
// # Bulkheads
//
// Every tenant gets its own System — its own copy-on-write snapshot
// store, durable directory, admission budget, retry/breaker policy, and
// plan cache — so tenants share a process but no failure domain: one
// tenant's overload sheds only its own queue, one tenant's poisoned
// statistics or panicking query quarantines only its own bulkhead, and
// one tenant's frozen WAL stops only its own mutations. The server adds
// the edge hardening around those bulkheads: client deadlines propagate
// into serving contexts (and from there into every governor budget),
// slow or stalled clients are bounded by read/write deadlines, every
// failure crosses the wire as a typed error with a Retry-After hint when
// resubmission is sensible, and a handler panic degrades the tenant
// instead of killing the process.
//
// # Graceful drain
//
// Shutdown (SIGTERM in cmd/elsserve) stops accepting, lets in-flight
// requests finish (bounded by the caller's context; stragglers are
// canceled and answer with typed ErrCanceled), answers late arrivals with
// a typed draining error carrying a Retry-After hint, checkpoints every
// durable tenant, closes every tenant's System (which drains its
// admission slots to zero and flushes its WAL), and only then returns.
// Every mutation acknowledged before the drain is recoverable by
// restarting the server over the same data root — the chaos fleet
// (internal/chaos.RunServer) audits exactly that, by digest.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	els "repro"
	"repro/internal/wire"
	"repro/internal/workpool"
)

// Config shapes one server. Addr and at least one tenant are required;
// every duration has a serving-grade default.
type Config struct {
	// Addr is the TCP listen address (use 127.0.0.1:0 in tests).
	Addr string
	// DataRoot, when set, makes every tenant durable: tenant X lives in
	// DataRoot/X (created or recovered by els.Open). Empty means
	// in-memory tenants.
	DataRoot string
	// Tenants are the hosted bulkheads.
	Tenants []TenantConfig
	// MemoryPool bounds the process's total query working memory in
	// bytes, split into equal per-tenant shares. A query-class request
	// whose tenant reservation (its Limits.MaxMemory, or a pool-derived
	// default) does not fit is shed immediately with a typed retryable
	// pressure error and a Retry-After hint, instead of queueing work the
	// process cannot hold. 0 disables the pool.
	MemoryPool int64
	// IdleTimeout bounds the wait for a client's next request frame
	// before the connection is shed (default 2m). It is the stalled-client
	// bulkhead on the read side.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one response (default 10s) — a client
	// that stops reading cannot pin a handler goroutine.
	WriteTimeout time.Duration
	// MaxFrame bounds request frames (default wire.DefaultMaxFrame).
	MaxFrame uint32
	// PoisonThreshold is how many consecutive internal errors quarantine
	// a tenant (default 5).
	PoisonThreshold int
	// DrainRetryAfter is the Retry-After hint attached to requests shed
	// because the server is draining (default 250ms) — long enough for a
	// rolling restart's replacement to come up.
	DrainRetryAfter time.Duration
	// OverloadRetryAfter is the Retry-After hint attached to overload
	// sheds when the tenant has no queue timeout to derive one from
	// (default 25ms).
	OverloadRetryAfter time.Duration
	// EnableFaultOps honors wire.OpFault (tests and the chaos fleet
	// only).
	EnableFaultOps bool
	// LogW, if non-nil, receives one JSON line per lifecycle event
	// (accepts, quarantines, drain phases) — the artifact CI uploads.
	LogW io.Writer
}

// Server is one running instance. Create with Start, stop with Shutdown.
type Server struct {
	cfg     Config
	ln      net.Listener
	tenants map[string]*tenant
	names   []string
	pool    *memPool

	connCtx    context.Context
	connCancel context.CancelFunc

	wg sync.WaitGroup // accept loop + connection handlers

	// In-flight request tracking. reqMu orders registration against the
	// drain's Wait: once reqClosed flips, arrivals are refused (typed
	// draining error) without touching reqWG, so Add never races Wait.
	//lockorder:level 12
	reqMu     sync.Mutex
	reqClosed bool
	reqWG     sync.WaitGroup

	//lockorder:level 10
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	shutdown bool
	drainErr error
	drained  chan struct{}

	draining   atomic.Bool
	accepted   counter
	requests   counter
	badFrames  counter
	drainNanos atomic.Int64
	start      time.Time
	//lockorder:level 70
	logMu       sync.Mutex
	shutdownOne sync.Once
}

// Start opens (or recovers) every tenant, binds the listener, and begins
// serving. ctx is the server's base context: every connection's serving
// context derives from it, so canceling it hard-stops in-flight work —
// prefer Shutdown, which drains first.
func Start(ctx context.Context, cfg Config) (*Server, error) {
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("%w: a server needs at least one tenant", els.ErrTenant)
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 2 * time.Minute
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.PoisonThreshold <= 0 {
		cfg.PoisonThreshold = 5
	}
	if cfg.DrainRetryAfter <= 0 {
		cfg.DrainRetryAfter = 250 * time.Millisecond
	}
	if cfg.OverloadRetryAfter <= 0 {
		cfg.OverloadRetryAfter = 25 * time.Millisecond
	}
	connCtx, connCancel := context.WithCancel(ctx)
	s := &Server{
		cfg:        cfg,
		pool:       newMemPool(cfg.MemoryPool, len(cfg.Tenants)),
		tenants:    make(map[string]*tenant, len(cfg.Tenants)),
		conns:      make(map[net.Conn]struct{}),
		drained:    make(chan struct{}),
		connCtx:    connCtx,
		connCancel: connCancel,
		start:      time.Now(),
	}
	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			connCancel()
			return nil, fmt.Errorf("%w: tenant name required", els.ErrTenant)
		}
		if _, dup := s.tenants[tc.Name]; dup {
			connCancel()
			return nil, fmt.Errorf("%w: duplicate tenant %q", els.ErrTenant, tc.Name)
		}
		t, err := s.openTenant(tc)
		if err != nil {
			connCancel()
			s.closeTenants(ctx)
			return nil, err
		}
		s.tenants[tc.Name] = t
		s.names = append(s.names, tc.Name)
	}
	sort.Strings(s.names)
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		connCancel()
		s.closeTenants(ctx)
		return nil, fmt.Errorf("%w: listening on %s: %w", els.ErrBadWire, cfg.Addr, err)
	}
	s.ln = ln
	s.event("listening", map[string]any{"addr": ln.Addr().String(), "tenants": s.names})
	workpool.Go(&s.wg, s.logWorkerErr, func() error {
		s.acceptLoop()
		return nil
	})
	return s, nil
}

// openTenant creates or recovers one tenant's System and applies its
// policies. A fresh tenant (no tables in its catalog) runs its Bootstrap.
func (s *Server) openTenant(tc TenantConfig) (*tenant, error) {
	var sys *els.System
	durable := s.cfg.DataRoot != ""
	if durable {
		dir := filepath.Join(s.cfg.DataRoot, tc.Name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("%w: creating tenant dir %s: %w", els.ErrDurability, dir, err)
		}
		var err error
		sys, err = els.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("opening tenant %q: %w", tc.Name, err)
		}
	} else {
		sys = els.New()
	}
	sys.SetLimits(tc.Limits)
	if tc.Retry.Enabled() {
		sys.SetRetryPolicy(tc.Retry)
	}
	sys.SetBreaker(tc.Breaker)
	if tc.Bootstrap != nil && len(sys.Tables()) == 0 {
		if err := tc.Bootstrap(sys); err != nil {
			return nil, fmt.Errorf("bootstrapping tenant %q: %w", tc.Name, err)
		}
	}
	return newTenant(tc, sys, durable, s.cfg.PoisonThreshold), nil
}

// Addr returns the bound listen address (resolves :0 to the real port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// System returns a tenant's System (nil for unknown tenants) — the
// in-process escape hatch tests and cmd/elsserve bootstrap paths use.
func (s *Server) System(tenant string) *els.System {
	t := s.tenants[tenant]
	if t == nil {
		return nil
	}
	return t.sys
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed (Shutdown) or fatally broken
		}
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.accepted.add(1)
		c := conn
		workpool.Go(&s.wg, s.logWorkerErr, func() error {
			defer s.dropConn(c)
			s.handleConn(s.connCtx, c)
			return nil
		})
	}
}

// dropConn closes and untracks one connection.
func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handleConn serves one connection's request loop. Read deadlines shed
// stalled clients; a torn frame ends the connection (the stream is
// desynced past it), while a well-framed but malformed request is
// answered typed and the connection kept. Frames are read through one
// buffer per connection, so a request costs one read(2), not two.
func (s *Server) handleConn(ctx context.Context, conn net.Conn) {
	br := bufio.NewReader(conn)
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)); err != nil {
			return
		}
		payload, err := wire.ReadFrame(br, s.cfg.MaxFrame)
		if err != nil {
			if err != io.EOF && !isConnShed(err) {
				// Genuinely mangled bytes: answer typed (best effort),
				// then hang up — frame boundaries are unrecoverable.
				s.badFrames.add(1)
				s.writeResp(conn, &wire.Response{Err: wire.FromError(err, 0)})
			}
			return
		}
		req, err := wire.DecodeRequest(payload)
		if err != nil {
			// The envelope was intact, so the stream is still framed:
			// answer typed and keep serving.
			s.badFrames.add(1)
			if !s.writeResp(conn, &wire.Response{Err: wire.FromError(err, 0)}) {
				return
			}
			continue
		}
		if !s.serveReq(ctx, conn, req) {
			return
		}
	}
}

// isConnShed reports wire failures that are connection lifecycle, not
// protocol violations: deadlines (stalled client shed) and closes.
func isConnShed(err error) bool {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return true
	}
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, io.ErrClosedPipe)
}

// writeResp writes one framed response under the write deadline,
// reporting whether the connection is still usable.
func (s *Server) writeResp(conn net.Conn, resp *wire.Response) bool {
	payload, err := wire.EncodeResponse(resp)
	if err != nil {
		return false
	}
	if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		return false
	}
	return wire.WriteFrame(conn, payload) == nil
}

// serveReq dispatches one request — drain gate, tenant routing, deadline
// propagation, the typed-error mapping onto the wire — and writes its
// response, reporting whether the connection is still usable. An admitted
// request stays registered until its response frame is written (or the
// write fails): the drain closes connections only after the last
// registered request is gone, so a response the drain waited for is never
// torn by it.
func (s *Server) serveReq(ctx context.Context, conn net.Conn, req *wire.Request) bool {
	s.requests.add(1)
	resp := &wire.Response{ID: req.ID}
	if s.beginReq() {
		defer s.reqWG.Done()
		if req.DeadlineMillis > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, time.Duration(req.DeadlineMillis)*time.Millisecond)
			defer cancel()
		}
		if err := s.dispatch(ctx, req, resp); err != nil {
			resp.Err = s.wireErr(req, err)
		} else {
			resp.OK = true
		}
	} else if req.Op == wire.OpStats {
		// Draining. Observability still answers; everything else is shed
		// typed with the drain's Retry-After hint.
		resp.Stats = s.statsDoc()
		resp.OK = true
	} else {
		resp.Err = s.wireErr(req, fmt.Errorf("%w: server draining, resubmit elsewhere or after Retry-After", els.ErrClosed))
	}
	return s.writeResp(conn, resp)
}

// beginReq registers one in-flight request, or reports that the server is
// draining and the request must be shed instead.
func (s *Server) beginReq() bool {
	s.reqMu.Lock()
	defer s.reqMu.Unlock()
	if s.reqClosed {
		return false
	}
	s.reqWG.Add(1)
	return true
}

// dispatch routes one request. OpStats answers even during drain — an
// operator's observability must outlive admission.
func (s *Server) dispatch(ctx context.Context, req *wire.Request, resp *wire.Response) error {
	if req.Op == wire.OpStats {
		resp.Stats = s.statsDoc()
		return nil
	}
	if req.Op == wire.OpPing && req.Tenant == "" {
		return nil
	}
	t := s.tenants[req.Tenant]
	if t == nil {
		return &els.TenantError{Tenant: req.Tenant, Reason: "unknown tenant"}
	}
	return t.serve(ctx, s, req, resp)
}

// wireErr maps a typed failure onto the wire, attaching the Retry-After
// hint the failure class calls for.
func (s *Server) wireErr(req *wire.Request, err error) *wire.Error {
	var hint time.Duration
	switch {
	case errors.Is(err, els.ErrOverloaded):
		hint = s.cfg.OverloadRetryAfter
		if t := s.tenants[req.Tenant]; t != nil {
			if qt := t.sys.Limits().QueueTimeout; qt > 0 {
				// The shed tells the client the queue was full for a
				// whole queue timeout: backing off for about one more is
				// the cheapest honest hint the server has.
				hint = qt
			}
		}
	case errors.Is(err, els.ErrClosed):
		hint = s.cfg.DrainRetryAfter
	case errors.Is(err, els.ErrStaleReplica):
		hint = 5 * time.Millisecond
	}
	return wire.FromError(err, hint)
}

// queryReserve sizes one query's memory-pool reservation for a tenant:
// its per-query byte budget when one is set (the pool then admits only as
// many concurrent budgets as truly fit), otherwise a quarter of the
// tenant's share — four unbudgeted queries per tenant at a time, whatever
// the pool's absolute size.
func (s *Server) queryReserve(t *tenant) int64 {
	if m := t.sys.Limits().MaxMemory; m > 0 {
		return m
	}
	return s.pool.share / 4
}

// statsDoc snapshots the observability document.
func (s *Server) statsDoc() *wire.ServerStats {
	doc := &wire.ServerStats{
		ConnsAccepted: s.accepted.load(),
		Requests:      s.requests.load(),
		BadFrames:     s.badFrames.load(),
		MemoryPool:    s.pool.total,
		MemoryInUse:   s.pool.snapshot(),
		MemSheds:      s.pool.sheds.load(),
		Draining:      s.draining.Load(),
		DrainMillis:   float64(s.drainNanos.Load()) / 1e6,
		UptimeMillis:  float64(time.Since(s.start)) / 1e6,
	}
	s.mu.Lock()
	doc.ActiveConns = len(s.conns)
	s.mu.Unlock()
	for _, name := range s.names {
		t := s.tenants[name]
		ts := t.stats()
		ts.MemSheds = t.memSheds.load()
		ts.MemInUse = s.pool.tenantInUse(name)
		doc.Tenants = append(doc.Tenants, ts)
	}
	return doc
}

// Stats snapshots the observability document in-process (what OpStats
// serves over the wire).
func (s *Server) Stats() *wire.ServerStats { return s.statsDoc() }

// Shutdown is the graceful drain: stop accepting, answer new requests
// with a typed draining error, wait for in-flight requests (canceling
// stragglers when ctx expires), checkpoint every durable tenant, close
// every tenant's System, then close the remaining connections. It is
// idempotent — concurrent calls share one drain — and returns the first
// tenant close/checkpoint failure, or ctx's error when the drain deadline
// was hit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOne.Do(func() { s.doShutdown(ctx) })
	select {
	case <-s.drained:
	case <-ctx.Done():
		// A second caller with a shorter deadline than the drain owner's.
		return fmt.Errorf("%w: %w", els.ErrCanceled, ctx.Err())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainErr
}

func (s *Server) doShutdown(ctx context.Context) {
	start := time.Now()
	s.draining.Store(true)
	s.reqMu.Lock()
	s.reqClosed = true
	s.reqMu.Unlock()
	s.mu.Lock()
	s.shutdown = true
	s.mu.Unlock()
	s.event("drain_start", nil)
	s.ln.Close()

	// Phase 1: in-flight requests. The drain context bounds the wait;
	// past it, the connection context is canceled so stragglers abort
	// with typed ErrCanceled and still get their response written.
	done := workpool.Async(func() error { s.reqWG.Wait(); return nil })
	var firstErr error
	select {
	case <-done:
	case <-ctx.Done():
		s.event("drain_deadline", map[string]any{"waited_ms": time.Since(start).Milliseconds()})
		s.connCancel()
		<-done
		firstErr = fmt.Errorf("%w: drain deadline hit; stragglers canceled: %w", els.ErrCanceled, ctx.Err())
	}

	// Phase 2: tenants. Checkpoint first — System.Close refuses
	// checkpoints once its own drain starts, and closes the WAL the
	// checkpoint compacts.
	for _, name := range s.names {
		t := s.tenants[name]
		if t.durable {
			if err := t.sys.Checkpoint(); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("checkpointing tenant %q: %w", name, err)
			}
		}
	}
	if err := s.closeTenants(ctx); err != nil && firstErr == nil {
		firstErr = err
	}

	// Phase 3: connections. Handlers wake from their reads and exit; the
	// accept loop already exited with the listener.
	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connCancel()
	s.wg.Wait()

	s.drainNanos.Store(int64(time.Since(start)))
	s.event("drain_done", map[string]any{"drain_ms": time.Since(start).Milliseconds()})
	s.mu.Lock()
	s.drainErr = firstErr
	s.mu.Unlock()
	close(s.drained)
}

// closeTenants closes every opened tenant's System, returning the first
// failure.
func (s *Server) closeTenants(ctx context.Context) error {
	var firstErr error
	for _, name := range s.names {
		if t := s.tenants[name]; t != nil {
			if err := t.sys.Close(ctx); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("closing tenant %q: %w", name, err)
			}
		}
	}
	return firstErr
}

// logWorkerErr records a worker failure in the event log; the bulkheads
// and panic containment mean these are lifecycle noise (a conn handler's
// recovered panic), never process-fatal.
func (s *Server) logWorkerErr(err error) {
	s.event("worker_error", map[string]any{"error": err.Error()})
}

// event emits one JSONL event (no-op without a log writer).
func (s *Server) event(kind string, fields map[string]any) {
	if s.cfg.LogW == nil {
		return
	}
	doc := map[string]any{"event": kind, "elapsed_ms": time.Since(s.start).Milliseconds()}
	for k, v := range fields {
		doc[k] = v
	}
	line, err := json.Marshal(doc)
	if err != nil {
		return
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	s.cfg.LogW.Write(append(line, '\n'))
}
