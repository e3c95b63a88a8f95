package server

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	els "repro"
	"repro/internal/wire"
)

// startTestServer brings up an in-memory two-tenant server and returns a
// connected client. Tenant "a" and tenant "b" publish deliberately
// different cardinalities for the same table name, so a cross-tenant read
// is detectable from any single response.
func startTestServer(t *testing.T, mutate func(*Config)) (*Server, *wire.Client) {
	t.Helper()
	cfg := Config{
		Addr: "127.0.0.1:0",
		Tenants: []TenantConfig{
			{
				Name:   "a",
				Limits: els.Limits{Timeout: 5 * time.Second, MaxConcurrent: 2, MaxQueue: 2, QueueTimeout: 50 * time.Millisecond},
				Bootstrap: func(sys *els.System) error {
					return sys.DeclareStats("T", 1111, map[string]float64{"x": 10})
				},
			},
			{
				Name:   "b",
				Limits: els.Limits{Timeout: 5 * time.Second, MaxConcurrent: 2},
				Bootstrap: func(sys *els.System) error {
					return sys.DeclareStats("T", 2222, map[string]float64{"x": 10})
				},
			},
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := Start(ctx, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
		cancel()
	})
	cl, err := wire.Dial(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return srv, cl
}

func TestServerRoutesTenantsIndependently(t *testing.T) {
	_, cl := startTestServer(t, nil)
	ctx := context.Background()

	for tenant, want := range map[string]float64{"a": 1111, "b": 2222} {
		resp, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: tenant, SQL: "SELECT COUNT(*) FROM T"})
		if err != nil {
			t.Fatalf("tenant %s: %v", tenant, err)
		}
		if resp.Estimate.FinalSize != want {
			t.Errorf("tenant %s estimated %g, want its own catalog's %g — cross-tenant read",
				tenant, resp.Estimate.FinalSize, want)
		}
	}
}

func TestServerTypedErrorsAcrossTheWire(t *testing.T) {
	_, cl := startTestServer(t, nil)
	ctx := context.Background()

	// Unknown tenant: typed tenant error, not quarantined.
	_, err := cl.Do(ctx, &wire.Request{Op: wire.OpPing, Tenant: "nobody"})
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !errors.Is(err, els.ErrTenant) {
		t.Fatalf("unknown tenant: err = %v, want the tenant sentinel", err)
	}
	if remote.Wire.Quarantined {
		t.Error("unknown tenant flagged quarantined")
	}

	// Parse failure: the exact in-process class, across the wire.
	if _, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: "a", SQL: "SELEKT"}); !errors.Is(err, els.ErrParse) {
		t.Fatalf("parse failure: err = %v, want ErrParse", err)
	}

	// Unknown algorithm and unknown op: typed.
	if _, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: "a", SQL: "SELECT COUNT(*) FROM T", Algo: "nope"}); !errors.Is(err, els.ErrParse) {
		t.Fatalf("unknown algorithm: err = %v, want ErrParse", err)
	}
	if _, err := cl.Do(ctx, &wire.Request{Op: "warp", Tenant: "a"}); !errors.Is(err, els.ErrBadWire) {
		t.Fatalf("unknown op: err = %v, want ErrBadWire", err)
	}

	// Fault ops are refused unless the server opted in.
	if _, err := cl.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: "a", Fault: "panic"}); !errors.Is(err, els.ErrBadWire) {
		t.Fatalf("fault op on a production server: err = %v, want ErrBadWire", err)
	}
}

// The client's deadline propagates into the tenant's serving context: a
// stalled handler aborts with the caller's cancellation class instead of
// running to the server's own limits.
func TestServerPropagatesClientDeadline(t *testing.T) {
	_, cl := startTestServer(t, func(c *Config) { c.EnableFaultOps = true })
	ctx := context.Background()

	start := time.Now()
	_, err := cl.Do(ctx, &wire.Request{
		Op: wire.OpFault, Tenant: "a", Fault: "stall", StallMillis: 4000,
		DeadlineMillis: 50,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, els.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled from the propagated deadline", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stall ran %v despite a 50ms propagated deadline", elapsed)
	}
}

// Declares acknowledge with the published version, digests expose the
// catalog identity, and both round-trip the wire.
func TestServerDeclareAndDigest(t *testing.T) {
	_, cl := startTestServer(t, nil)
	ctx := context.Background()

	before, err := cl.Do(ctx, &wire.Request{Op: wire.OpDigest, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := cl.Do(ctx, &wire.Request{Op: wire.OpDeclare, Tenant: "a", Table: "U", Rows: 500,
		Distinct: map[string]float64{"y": 5}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Version <= before.Version {
		t.Fatalf("declare acknowledged version %d, want past %d", ack.Version, before.Version)
	}
	after, err := cl.Do(ctx, &wire.Request{Op: wire.OpDigest, Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if after.Version != ack.Version || after.Digest == before.Digest || after.Digest == "" {
		t.Fatalf("digest did not advance with the mutation: before %d:%.8s, ack %d, after %d:%.8s",
			before.Version, before.Digest, ack.Version, after.Version, after.Digest)
	}
}

// Repeated handler panics quarantine the tenant — typed, sticky, and
// invisible to the neighbor tenant.
func TestServerQuarantineIsolatesTenant(t *testing.T) {
	_, cl := startTestServer(t, func(c *Config) {
		c.EnableFaultOps = true
		c.PoisonThreshold = 2
	})
	ctx := context.Background()

	for i := 0; i < 2; i++ {
		if _, err := cl.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: "a", Fault: "panic"}); !errors.Is(err, els.ErrInternal) && !errors.Is(err, els.ErrTenant) {
			t.Fatalf("injected panic %d: err = %v, want internal (or the trip)", i, err)
		}
	}
	_, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: "a", SQL: "SELECT COUNT(*) FROM T"})
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || !errors.Is(err, els.ErrTenant) || !remote.Wire.Quarantined {
		t.Fatalf("quarantined tenant: err = %v, want a typed quarantine", err)
	}
	if remote.Wire.Retryable {
		t.Error("quarantine error flagged retryable; the trip is sticky until restart")
	}

	resp, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: "b", SQL: "SELECT COUNT(*) FROM T"})
	if err != nil || resp.Estimate.FinalSize != 2222 {
		t.Fatalf("neighbor tenant: resp %+v err %v, want its usual 2222", resp, err)
	}

	st := statsFor(t, cl, "a")
	if !st.Degraded || st.DegradedReason == "" {
		t.Errorf("stats do not report the quarantine: %+v", st)
	}
}

// A comparison of types storage.Compare cannot compare is the client's
// mistake: a non-retryable ErrParse that counts nothing toward the poison
// threshold, so threshold+1 of them in a row leave the tenant serving.
func TestServerTypeMismatchDoesNotQuarantine(t *testing.T) {
	_, cl := startTestServer(t, func(c *Config) {
		c.PoisonThreshold = 2
		c.Tenants[0].Bootstrap = func(sys *els.System) error {
			return sys.LoadCSVReader("P", strings.NewReader("id,name\n1,alice\n2,bob\n"), true, 0)
		}
	})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		_, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: "a", SQL: "SELECT COUNT(*) FROM P WHERE P.name < 5"})
		var remote *wire.RemoteError
		if !errors.As(err, &remote) || !errors.Is(err, els.ErrParse) || remote.Wire.Retryable {
			t.Fatalf("statement %d: err = %v, want a non-retryable ErrParse", i, err)
		}
	}
	resp, err := cl.Do(ctx, &wire.Request{Op: wire.OpQuery, Tenant: "a", SQL: "SELECT COUNT(*) FROM P WHERE P.id < 2"})
	if err != nil || resp.Result == nil || resp.Result.Count != 1 {
		t.Fatalf("after three rejected statements: resp %+v, err %v", resp, err)
	}
	if st := statsFor(t, cl, "a"); st.Degraded {
		t.Errorf("tenant degraded by parse errors: %+v", st)
	}
}

// Shutdown drains: in-flight work finishes, late arrivals shed typed with
// a Retry-After hint, and stats report the drain.
func TestServerShutdownDrains(t *testing.T) {
	srv, cl := startTestServer(t, func(c *Config) { c.EnableFaultOps = true })
	ctx := context.Background()

	inflight := make(chan error, 1)
	go func() {
		cl2, err := wire.Dial(ctx, srv.Addr())
		if err != nil {
			inflight <- err
			return
		}
		defer cl2.Close()
		_, err = cl2.Do(ctx, &wire.Request{Op: wire.OpFault, Tenant: "a", Fault: "stall", StallMillis: 200})
		inflight <- err
	}()
	time.Sleep(50 * time.Millisecond)

	done := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		done <- srv.Shutdown(sctx)
	}()
	time.Sleep(20 * time.Millisecond)

	_, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: "a", SQL: "SELECT COUNT(*) FROM T"})
	var remote *wire.RemoteError
	switch {
	case err == nil:
		t.Error("request admitted mid-drain")
	case errors.As(err, &remote):
		if !errors.Is(err, els.ErrClosed) || remote.RetryAfter() <= 0 {
			t.Errorf("mid-drain shed = %v (hint %v), want typed closed with a hint", err, remote.RetryAfter())
		}
	case errors.Is(err, els.ErrBadWire):
		// The connection was torn down first — an acceptable drain shape.
	default:
		t.Errorf("mid-drain request: %v", err)
	}

	if err := <-inflight; err != nil {
		t.Errorf("in-flight request did not survive the drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
	st := srv.Stats()
	if !st.Draining || st.DrainMillis <= 0 || st.ActiveConns != 0 {
		t.Errorf("post-drain stats: %+v", st)
	}
	for _, ts := range st.Tenants {
		if ts.InFlight != 0 || ts.Waiting != 0 {
			t.Errorf("tenant %s leaks slots after drain: %+v", ts.Tenant, ts)
		}
	}
}

// A malformed-but-framed request is answered typed and the connection
// survives; the server keeps serving afterwards.
func TestServerSurvivesMalformedPayload(t *testing.T) {
	_, cl := startTestServer(t, nil)
	ctx := context.Background()

	// Reach under the client: a framed payload that is not a codec message
	// is covered by the chaos saboteur; here, verify an op-level failure does
	// not poison the connection for the next request.
	if _, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: "a", SQL: "SELEKT"}); !errors.Is(err, els.ErrParse) {
		t.Fatalf("bad SQL: %v", err)
	}
	resp, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: "a", SQL: "SELECT COUNT(*) FROM T"})
	if err != nil || resp.Estimate.FinalSize != 1111 {
		t.Fatalf("connection did not survive the failed request: %+v %v", resp, err)
	}
}

func statsFor(t *testing.T, cl *wire.Client, tenant string) wire.TenantStats {
	t.Helper()
	resp, err := cl.Do(context.Background(), &wire.Request{Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range resp.Stats.Tenants {
		if ts.Tenant == tenant {
			return ts
		}
	}
	t.Fatalf("tenant %s missing from stats: %+v", tenant, resp.Stats)
	return wire.TenantStats{}
}

// A request names its algorithm by any published name, case-insensitively,
// and no name selects ELS.
func TestParseAlgoNames(t *testing.T) {
	_, cl := startTestServer(t, nil)
	estimate := func(algo string) string {
		t.Helper()
		resp, err := cl.Do(context.Background(), &wire.Request{
			Op: wire.OpEstimate, Tenant: "a", SQL: "SELECT COUNT(*) FROM T", Algo: algo})
		if err != nil {
			t.Fatalf("algo %q: %v", algo, err)
		}
		return resp.Estimate.Algorithm
	}
	for _, a := range els.Algorithms() {
		if got := estimate(strings.ToLower(a.String())); got != a.String() {
			t.Errorf("algo %q served as %q", strings.ToLower(a.String()), got)
		}
	}
	if got := estimate(""); got != els.AlgorithmELS.String() {
		t.Errorf("empty algo served as %q, want the ELS default", got)
	}
}
