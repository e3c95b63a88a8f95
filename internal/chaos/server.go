package chaos

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	els "repro"
	"repro/internal/executor"
	"repro/internal/faultinject"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workpool"
)

// tenants is how many tenants the wire storms host: one to poison or to
// hog memory, and two neighbours for the isolation audits to check.
const tenants = 3

// tenantCardBase spaces each tenant's published cardinalities a million
// apart, so an estimate served from the wrong tenant's catalog lands in
// an unmistakably foreign band — the cross-tenant interference detector.
func tenantCardBase(i int) float64 { return float64(i+1) * 1_000_000 }

func tenantName(i int) string { return fmt.Sprintf("tenant%d", i) }

// wireConfig is the wire storms' server: the durable tenants over cfg.Dir,
// each admitted under lim and bootstrapped by boot.
func wireConfig(cfg Config, lim els.Limits, boot func(i int, sys *els.System) error) server.Config {
	sc := server.Config{Addr: "127.0.0.1:0", DataRoot: cfg.Dir, LogW: cfg.LogW}
	for i := 0; i < tenants; i++ {
		sc.Tenants = append(sc.Tenants, server.TenantConfig{
			Name:      tenantName(i),
			Limits:    lim,
			Bootstrap: func(sys *els.System) error { return boot(i, sys) },
		})
	}
	return sc
}

// shed reports whether err is a typed overload shed, recording a violation
// unless the shed is flagged retryable and carries a Retry-After hint.
func (l *ledger) shed(who string, err error) bool {
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !errors.Is(err, els.ErrOverloaded) {
		return false
	}
	if !remote.Wire.Retryable {
		l.violationf("%s shed not flagged retryable", who)
	}
	if remote.RetryAfter() <= 0 {
		l.violationf("%s shed carries no Retry-After hint", who)
	}
	return true
}

// wireStorm carries a wire storm's shared state.
type wireStorm struct {
	ledger
	cfg Config

	// Guarded by ledger.mu; RunServer's isolation and torn-read evidence.
	versionCard [tenants]map[uint64]float64 // acked version -> card, per tenant
	obs         [tenants][]observation      // estimate probes, per tenant
}

// RunServer drives the network chaos fleet end to end: durable tenants
// behind one wire server, per-tenant client swarms issuing estimates,
// executed queries, mutations, deadline-bounded calls, and overload
// floods while saboteur clients tear frames, send garbage, stall, and
// vanish mid-request; one tenant is poisoned into quarantine by injected
// panics; the server then drains gracefully mid-traffic and restarts over
// the same data root. The audits:
//
//   - isolation: every estimate's cardinality lands in the band its
//     tenant published (no cross-tenant reads), and a quarantined tenant's
//     neighbors keep serving;
//   - taxonomy: every client-observed failure matches a public sentinel;
//   - no leaks: after the drain, every tenant is at zero in-flight and
//     zero waiting, and the server holds zero connections;
//   - durability: every tenant's recovered catalog identity
//     (version:digest) equals its pre-drain identity — no acknowledged
//     mutation was lost.
func RunServer(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("chaos: RunServer needs a Dir")
	}
	cfg.Workers = or(cfg.Workers, 4)
	cfg.Ops = or(cfg.Ops, 30)
	h := &wireStorm{ledger: ledger{logW: cfg.LogW, opTimeout: 5 * time.Second}, cfg: cfg}

	srv, err := server.Start(ctx, h.serverConfig())
	if err != nil {
		return nil, fmt.Errorf("chaos: starting server: %w", err)
	}
	addr := srv.Addr()
	for i := range h.versionCard {
		// The bootstrap-published identity gives the first probes a version.
		h.versionCard[i] = map[uint64]float64{srv.System(tenantName(i)).CatalogVersion(): tenantCardBase(i)}
	}

	// Phase 1: the storm — per tenant one mutator and Workers-1 readers,
	// plus one saboteur.
	h.logEvent(map[string]any{"event": "storm_start", "addr": addr, "tenants": tenants})
	w := cfg.Workers
	h.fleet(tenants*w+1, func(i int) {
		switch ti := i / w; {
		case ti == tenants:
			h.saboteur(ctx, addr)
		case i%w == 0:
			h.mutatorClient(ctx, addr, ti)
		default:
			h.readerClient(ctx, addr, ti, i%w)
		}
	})

	// Phase 1b: overload flood — a one-shot client burst far past the
	// 2-slot, 2-deep admission budget; the sheds must be typed, marked
	// retryable, and carry a Retry-After hint.
	h.flood(ctx, addr)

	// Phase 2: poison the last tenant into quarantine; its neighbors must
	// not notice.
	poisoned := tenants - 1
	h.poison(ctx, addr, tenantName(poisoned))
	h.auditIsolation(ctx, addr, poisoned)

	// Phase 3: pre-drain identity. The quarantined tenant's wire path
	// fails fast by design, so its digest is read in-process — quarantine
	// is server-level health state, the System under it is intact.
	preDigests := make(map[string]string)
	for i := 0; i < tenants; i++ {
		name := tenantName(i)
		v, d, derr := srv.System(name).CatalogDigest()
		if derr != nil {
			h.violationf("pre-drain digest of %s failed: %v", name, derr)
			continue
		}
		preDigests[name] = fmt.Sprintf("%d:%s", v, d)
	}

	// Phase 4: graceful drain under live traffic. Stalled requests
	// started before the drain must finish; a request landing mid-drain
	// must be refused with a typed draining error carrying a Retry-After
	// hint.
	h.auditDrain(ctx, addr, srv)
	st := srv.Stats()
	if st.ActiveConns != 0 {
		h.violationf("connection leak: %d conns survive the drain", st.ActiveConns)
	}
	for _, ts := range st.Tenants {
		if ts.InFlight != 0 || ts.Waiting != 0 {
			h.violationf("slot leak in %s after drain: in-flight %d, waiting %d", ts.Tenant, ts.InFlight, ts.Waiting)
		}
	}

	// Phase 5: restart over the same data root; every tenant — including
	// the formerly quarantined one, whose poison was process state — must
	// recover its exact pre-drain identity, over the wire.
	srv2, err := server.Start(ctx, h.serverConfig())
	if err != nil {
		return nil, fmt.Errorf("chaos: restarting server: %w", err)
	}
	digests := make(map[string]string)
	if cl := h.dial(ctx, srv2.Addr()); cl != nil {
		for i := 0; i < tenants; i++ {
			name := tenantName(i)
			resp, derr := cl.Do(ctx, &wire.Request{Op: wire.OpDigest, Tenant: name})
			if derr != nil {
				h.violationf("post-restart digest of %s failed: %v", name, derr)
				continue
			}
			digests[name] = fmt.Sprintf("%d:%s", resp.Version, resp.Digest)
			if pre, ok := preDigests[name]; ok && pre != digests[name] {
				h.violationf("tenant %s lost acknowledged state across restart: pre-drain %s, recovered %s",
					name, pre, digests[name])
			}
		}
		cl.Close()
	}
	if err := within(ctx, srv2.Shutdown); err != nil {
		h.violationf("restarted server did not drain cleanly: %v", err)
	}

	h.auditVersions()
	rep := h.report()
	rep.Digests = digests
	return rep, nil
}

// serverConfig builds the (restart-stable) server configuration: small
// admission budgets keep the queues contended, a low poison threshold
// keeps the quarantine reachable, and fault ops are enabled for the
// tenant-targeted injections.
func (h *wireStorm) serverConfig() server.Config {
	lim := els.Limits{
		Timeout:       2 * time.Second,
		MaxConcurrent: 2,
		MaxQueue:      2,
		QueueTimeout:  30 * time.Millisecond,
	}
	cfg := wireConfig(h.cfg, lim, func(i int, sys *els.System) error {
		if err := seedRS(sys, 100, 150); err != nil {
			return err
		}
		return sys.DeclareStats("V", tenantCardBase(i), map[string]float64{"x": 10})
	})
	cfg.IdleTimeout = 5 * time.Second
	cfg.WriteTimeout = 2 * time.Second
	cfg.PoisonThreshold = 3
	cfg.EnableFaultOps = true
	return cfg
}

// observe records tenant ti's estimate of the version probe for the
// isolation and torn-read audits.
func (h *wireStorm) observe(ti int, est *wire.Estimate) {
	h.mu.Lock()
	h.obs[ti] = append(h.obs[ti], observation{est.CatalogVersion, est.FinalSize})
	h.mu.Unlock()
}

// mutatorClient is tenant ti's single mutating client: it republishes V's
// statistics with a version-correlated, tenant-banded cardinality. One
// mutator per tenant means the version a declare acknowledgement reports
// is exactly the version that declare published.
func (h *wireStorm) mutatorClient(ctx context.Context, addr string, ti int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 1000 + int64(ti)))
	name := tenantName(ti)
	cl := h.dial(ctx, addr)
	if cl == nil {
		return
	}
	defer cl.Close()
	for i := 1; i <= h.cfg.Ops; i++ {
		card := tenantCardBase(ti) + float64(i)
		resp, err := cl.Do(ctx, &wire.Request{
			Op: wire.OpDeclare, Tenant: name, Table: "V", Rows: card,
			Distinct: map[string]float64{"x": 10},
		})
		h.record(name, "declare", err)
		if err != nil {
			// A shed or torn declare is unacknowledged: nothing to record,
			// and the durability audit must not expect it.
			if cl = h.redial(ctx, addr, cl); cl == nil {
				return
			}
			continue
		}
		h.mu.Lock()
		h.versionCard[ti][resp.Version] = card
		h.mu.Unlock()
		h.logEvent(map[string]any{"event": "publish", "tenant": name, "version": resp.Version, "card": card})
		pause(ctx.Done(), time.Duration(rng.Intn(2)+1)*time.Millisecond)
	}
}

// readerClient is one swarm client: estimates (audited for isolation),
// executed queries, explains, deadline-bounded calls, and stall faults,
// with no pacing — the swarm outnumbers the 2-slot admission budget, so
// overload sheds are part of the storm's diet.
func (h *wireStorm) readerClient(ctx context.Context, addr string, ti, w int) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + int64(ti)*100 + int64(w)))
	name := tenantName(ti)
	cl := h.dial(ctx, addr)
	if cl == nil {
		return
	}
	defer func() { cl.Close() }()
	for i := 0; i < h.cfg.Ops; i++ {
		var err error
		var op string
		switch rng.Intn(6) {
		case 0:
			op = "estimate-v"
			var resp *wire.Response
			if resp, err = cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: name, SQL: versionProbeSQL}); err == nil {
				h.observe(ti, resp.Estimate)
			}
		case 1:
			op = "query"
			_, err = cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: name,
				SQL: stormSQL[rng.Intn(len(stormSQL))]})
		case 2:
			op = "explain"
			_, err = cl.Do(ctx, &wire.Request{Op: wire.OpExplain, Tenant: name,
				SQL: stormSQL[rng.Intn(len(stormSQL))]})
		case 3:
			op = "estimate-deadline"
			dctx, cancel := context.WithTimeout(ctx, time.Duration(rng.Intn(5)+1)*time.Millisecond)
			_, err = cl.Do(dctx, &wire.Request{Op: wire.OpEstimate, Tenant: name,
				SQL: stormSQL[rng.Intn(len(stormSQL))]})
			cancel()
		case 4:
			op = "stall"
			_, err = cl.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: name,
				Fault: "stall", StallMillis: int64(rng.Intn(5) + 1)})
		case 5:
			op = "parse-error"
			_, err = cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: name, SQL: "SELEKT nonsense"})
			if err != nil && errors.Is(err, els.ErrParse) {
				err = nil // the expected typed outcome
			}
		}
		h.record(name, op, err)
		if cl.Broken() {
			if cl = h.redial(ctx, addr, cl); cl == nil {
				return
			}
		}
	}
}

// saboteur attacks the wire itself: garbage frames, corrupted checksums,
// truncated headers, and mid-request hangups. None of it may wedge the
// server or leak a connection; well-framed garbage must come back as a
// typed bad-wire error.
func (h *wireStorm) saboteur(ctx context.Context, addr string) {
	rng := rand.New(rand.NewSource(h.cfg.Seed + 7))
	var d net.Dialer
	for i := 0; i < 4*tenants; i++ {
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			h.violationf("saboteur dial failed: %v", err)
			return
		}
		conn.SetDeadline(time.Now().Add(2 * time.Second))
		kind := ""
		switch rng.Intn(4) {
		case 0:
			kind = "garbage"
			// A syntactically valid frame holding non-JSON: the server
			// must answer typed and keep the connection.
			payload := []byte("this is not json")
			if werr := wire.WriteFrame(conn, payload); werr == nil {
				if raw, rerr := wire.ReadFrame(conn, 0); rerr == nil {
					if resp, derr := wire.DecodeResponse(raw); derr != nil || resp.Err == nil ||
						wire.Sentinel(resp.Err.Code) == nil {
						h.violationf("garbage payload did not yield a typed wire error")
					}
				} else {
					h.violationf("garbage payload: no typed reply: %v", rerr)
				}
			}
		case 1:
			kind = "bad-crc"
			// A corrupted checksum: the server counts a bad frame and
			// hangs up (the stream past it is unframed).
			payload := []byte(`{"op":"ping"}`)
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], 0xDEADBEEF)
			conn.Write(hdr[:])
			conn.Write(payload)
			io.ReadAll(conn) // observe the hangup (reply is best-effort)
		case 2:
			kind = "truncated"
			// Half a header, then vanish.
			conn.Write([]byte{0x10, 0x00})
		case 3:
			kind = "vanish"
			// A valid request, then hang up before reading the response.
			if payload, eerr := wire.EncodeRequest(&wire.Request{ID: 1, Op: wire.OpPing}); eerr == nil {
				wire.WriteFrame(conn, payload)
			}
		}
		conn.Close()
		h.logEvent(map[string]any{"event": "sabotage", "kind": kind})
	}
}

// flood slams one tenant with concurrent one-shot clients far beyond its
// admission budget. Sheds are the expected diet; each must be typed
// overloaded, flagged retryable, and carry the queue-timeout-derived
// Retry-After hint.
func (h *wireStorm) flood(ctx context.Context, addr string) {
	name := tenantName(0)
	const clients, opsEach = 12, 15
	// Every admitted query stalls at its scans, so the two slots and the
	// two queue places stay taken while the other clients arrive: the shed
	// does not depend on how fast a cached query runs.
	faultinject.Enable(executor.PointScan, faultinject.Fault{Delay: 10 * time.Millisecond})
	defer faultinject.Disable(executor.PointScan)
	h.fleet(clients, func(int) {
		cl := h.dial(ctx, addr)
		if cl == nil {
			return
		}
		defer cl.Close()
		for i := 0; i < opsEach && !cl.Broken(); i++ {
			_, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: name, SQL: stormSQL[0]})
			h.record(name, "flood", err)
			if err != nil && h.shed("overload", err) {
				h.count("sheds", 1)
			}
		}
	})
	if h.counted("sheds") == 0 {
		h.violationf("overload flood produced no shed — the admission bulkhead never engaged")
	}
	h.logEvent(map[string]any{"event": "flood_done", "sheds": h.counted("sheds")})
}

// poison floods one tenant with injected panics until its bulkhead trips,
// then verifies the trip is sticky and typed.
func (h *wireStorm) poison(ctx context.Context, addr, name string) {
	cl := h.dial(ctx, addr)
	if cl == nil {
		return
	}
	defer cl.Close()
	quarantined := false
	for i := 0; i < 10; i++ {
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: name, Fault: "panic"})
		if err == nil {
			h.violationf("injected panic reported success")
			return
		}
		var remote *wire.RemoteError
		if errors.As(err, &remote) && remote.Wire.Quarantined {
			quarantined = true
			break
		}
		if !errors.Is(err, els.ErrInternal) {
			h.violationf("injected panic surfaced as %v, want an internal error until the trip", err)
		}
		if cl.Broken() {
			if cl = h.redial(ctx, addr, cl); cl == nil {
				return
			}
		}
	}
	if !quarantined {
		h.violationf("tenant did not quarantine after repeated injected panics")
		return
	}
	h.count("quarantined", 1)
	h.logEvent(map[string]any{"event": "poisoned", "tenant": name})
	// The quarantine must be sticky and typed: a healthy request now
	// fails fast with the tenant sentinel, marked not retryable.
	_, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: name, SQL: versionProbeSQL})
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !errors.Is(err, els.ErrTenant) || !remote.Wire.Quarantined {
		h.violationf("quarantined tenant answered %v, want a typed quarantine error", err)
	} else if remote.Wire.Retryable {
		h.violationf("quarantine error claims to be retryable; the trip is sticky until restart")
	}
}

// auditIsolation verifies the poisoned tenant's neighbors still serve.
func (h *wireStorm) auditIsolation(ctx context.Context, addr string, poisoned int) {
	cl := h.dial(ctx, addr)
	if cl == nil {
		return
	}
	defer cl.Close()
	for i := 0; i < tenants; i++ {
		if i == poisoned {
			continue
		}
		resp, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: tenantName(i), SQL: versionProbeSQL})
		if err != nil {
			h.violationf("tenant %s failed (%v) while %s is quarantined: bulkhead breach",
				tenantName(i), err, tenantName(poisoned))
			continue
		}
		h.observe(i, resp.Estimate)
	}
}

// auditDrain exercises the graceful drain under live traffic.
func (h *wireStorm) auditDrain(ctx context.Context, addr string, srv *server.Server) {
	// A request stalled inside a healthy tenant when the drain starts: it
	// must complete (the drain waits for in-flight work).
	inflight := workpool.Async(func() error {
		cl := h.dial(ctx, addr)
		if cl == nil {
			return fmt.Errorf("chaos: no client for the in-flight probe")
		}
		defer cl.Close()
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: tenantName(0),
			Fault: "stall", StallMillis: 300})
		return err
	})
	time.Sleep(50 * time.Millisecond) // let the stall reach the tenant
	done := workpool.Async(func() error { return within(ctx, srv.Shutdown) })

	// A request landing mid-drain: typed draining error, Retry-After set.
	// The listener may already be down, in which case the refusal happens
	// at dial — an equally acceptable drain shape.
	time.Sleep(20 * time.Millisecond)
	if cl, derr := wire.Dial(ctx, addr); derr != nil {
		h.logEvent(map[string]any{"event": "mid_drain_refused_at_dial"})
	} else {
		cl.OpTimeout = 5 * time.Second
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: tenantName(0), SQL: versionProbeSQL})
		var remote *wire.RemoteError
		switch {
		case err == nil:
			h.violationf("request admitted mid-drain")
		case errors.As(err, &remote):
			if !errors.Is(err, els.ErrClosed) {
				h.violationf("mid-drain request got %v, want the closed sentinel", err)
			}
			if remote.RetryAfter() <= 0 {
				h.violationf("mid-drain shed carries no Retry-After hint")
			}
		default:
			// The accept gate may already be down; a connection-level
			// refusal (bad-wire locally) is an acceptable shape too.
			if !errors.Is(err, els.ErrBadWire) {
				h.violationf("mid-drain request got %v, want a typed shed", err)
			}
		}
		cl.Close()
	}

	if err := <-inflight; err != nil {
		h.violationf("in-flight request did not survive the drain: %v", err)
	}
	if err := <-done; err != nil {
		h.violationf("drain failed: %v", err)
	}
	h.logEvent(map[string]any{"event": "drained", "drain_ms": srv.Stats().DrainMillis})
}

// auditVersions checks every estimate probe against the band and the
// exact cardinality its tenant published for the pinned version.
func (h *wireStorm) auditVersions() {
	// Every fleet goroutine has exited, so the probes are settled.
	for ti, probes := range h.obs {
		tenant, base := tenantName(ti), tenantCardBase(ti)
		for _, o := range probes {
			card, ok := h.versionCard[ti][o.version]
			if !ok {
				// The mutator's ack for this version may have been lost to
				// a torn transport while the server still published it; the
				// band check below still polices tenancy.
				h.logEvent(map[string]any{"event": "unmatched_version", "tenant": tenant, "version": o.version})
			} else if o.size != card {
				h.violationf("torn read in %s: estimate %g at version %d, which published %g",
					tenant, o.size, o.version, card)
			}
			if o.size < base || o.size >= base+1_000_000 {
				h.violationf("cross-tenant read: %s estimate %g is outside its band [%g, %g)",
					tenant, o.size, base, base+1_000_000)
			}
		}
		h.count("observations", len(probes))
	}
}
