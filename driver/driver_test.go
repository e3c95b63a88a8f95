package driver

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	els "repro"
	"repro/internal/governor"
	"repro/internal/server"
	"repro/internal/wire"
)

// startServer brings up a single-tenant in-memory server with demo data
// and returns a DSN for it.
func startServer(t *testing.T, tenant string, opts string) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	srv, err := server.Start(ctx, server.Config{
		Addr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{{
			Name:   tenant,
			Limits: els.Limits{Timeout: 5 * time.Second, MaxConcurrent: 4, MaxRows: 100},
			Bootstrap: func(sys *els.System) error {
				rows := make([][]int64, 20)
				for i := range rows {
					rows[i] = []int64{int64(i % 5), int64(i % 3)}
				}
				return sys.LoadTable("R", []string{"a", "b"}, rows)
			},
		}},
	})
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
	return fmt.Sprintf("els://%s/%s%s", srv.Addr(), tenant, opts)
}

func TestDriverQueryRoundTrip(t *testing.T) {
	db, err := sql.Open("els", startServer(t, "acme", "?timeout=5s"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// A COUNT query surfaces one count row.
	var count int64
	if err := db.QueryRow("SELECT COUNT(*) FROM R WHERE R.a = 1").Scan(&count); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Errorf("count = %d, want 4", count)
	}

	// ESTIMATE surfaces the estimator's row.
	var algo, joinOrder string
	var size float64
	var version int64
	if err := db.QueryRow("ESTIMATE SELECT COUNT(*) FROM R").Scan(&algo, &size, &version, &joinOrder); err != nil {
		t.Fatal(err)
	}
	if size != 20 || version == 0 {
		t.Errorf("estimate = (%q, %g, v%d, %q), want size 20 at a real version", algo, size, version, joinOrder)
	}

	// EXPLAIN surfaces the plan text.
	var plan string
	if err := db.QueryRow("EXPLAIN SELECT COUNT(*) FROM R").Scan(&plan); err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Error("empty plan text")
	}
}

func TestDriverDeclareStats(t *testing.T) {
	db, err := sql.Open("els", startServer(t, "acme", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	res, err := db.Exec("DECLARE STATS T 1000 a=10,b=25")
	if err != nil {
		t.Fatal(err)
	}
	version, err := res.LastInsertId()
	if err != nil || version == 0 {
		t.Fatalf("declare acknowledged version %d, %v", version, err)
	}

	var size float64
	var algo, joinOrder string
	var v int64
	if err := db.QueryRow("ESTIMATE SELECT COUNT(*) FROM T").Scan(&algo, &size, &v, &joinOrder); err != nil {
		t.Fatal(err)
	}
	if size != 1000 {
		t.Errorf("estimate over declared stats = %g, want 1000", size)
	}

	// Exec accepts nothing else.
	if _, err := db.Exec("DROP TABLE T"); !errors.Is(err, els.ErrParse) {
		t.Errorf("non-declare Exec = %v, want ErrParse", err)
	}
}

// Server-side failures surface as errors classifiable with errors.Is
// against the public els sentinels, exactly as in-process.
func TestDriverTypedErrors(t *testing.T) {
	db, err := sql.Open("els", startServer(t, "acme", ""))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Query("SELEKT nonsense"); !errors.Is(err, els.ErrParse) {
		t.Errorf("parse failure = %v, want ErrParse", err)
	}
	if _, err := db.Query("SELECT COUNT(*) FROM R WHERE R.a = 1", 7); !errors.Is(err, els.ErrParse) {
		t.Errorf("bind args = %v, want ErrParse (the dialect has no placeholders)", err)
	}

	// Wrong tenant in the DSN: typed tenant routing error on first use.
	dsn := startServer(t, "real", "")
	wrong, err := sql.Open("els", dsn[:len(dsn)-len("real")]+"ghost")
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if err := wrong.Ping(); !errors.Is(err, els.ErrTenant) {
		t.Errorf("unknown tenant ping = %v, want ErrTenant", err)
	}
}

func TestDriverDSNValidation(t *testing.T) {
	bad := []string{
		"postgres://x/y",   // wrong scheme
		"els://",           // no host
		"els://host:1/",    // no tenant
		"els://host:1/a/b", // nested tenant path
		"els://host:1/a?timeout=banana",
		"els://host:1/a?retries=-2",
	}
	for _, dsn := range bad {
		if _, err := parseDSN(dsn); !errors.Is(err, els.ErrParse) {
			t.Errorf("parseDSN(%q) = %v, want ErrParse", dsn, err)
		}
	}
	cfg, err := parseDSN("els://10.0.0.1:7447/acme?timeout=250ms&algo=sm&retries=3")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.addr != "10.0.0.1:7447" || cfg.tenant != "acme" ||
		cfg.timeout != 250*time.Millisecond || cfg.algo != "sm" || cfg.retries != 3 {
		t.Errorf("parseDSN = %+v", cfg)
	}
}

// The retry budget in the DSN rides out transient overload: a tenant with
// one slot and no queue sheds a concurrent burst, and the retrying
// connection converges instead of surfacing the shed.
func TestDriverRetriesOverload(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv, err := server.Start(ctx, server.Config{
		Addr: "127.0.0.1:0",
		Tenants: []server.TenantConfig{{
			Name:   "acme",
			Limits: els.Limits{Timeout: 5 * time.Second, MaxConcurrent: 1, MaxQueue: 1, QueueTimeout: 5 * time.Millisecond},
			Bootstrap: func(sys *els.System) error {
				rows := make([][]int64, 50)
				for i := range rows {
					rows[i] = []int64{int64(i % 5), int64(i % 3)}
				}
				return sys.LoadTable("R", []string{"a", "b"}, rows)
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
	}()

	db, err := sql.Open("els", fmt.Sprintf("els://%s/acme?retries=50&timeout=10s", srv.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetMaxOpenConns(8)

	errCh := make(chan error, 24)
	for i := 0; i < 24; i++ {
		go func() {
			var n int64
			errCh <- db.QueryRow("SELECT COUNT(*) FROM R WHERE R.a = 1").Scan(&n)
		}()
	}
	for i := 0; i < 24; i++ {
		if err := <-errCh; err != nil {
			t.Errorf("burst query %d failed despite retries: %v", i, err)
		}
	}
}

// scriptedServer answers a connection's first request with fail and every
// later one with success, counting the requests it saw.
func scriptedServer(t *testing.T, fail *wire.Error) (addr string, requests *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	requests = new(atomic.Int32)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			payload, err := wire.ReadFrame(conn, 0)
			if err != nil {
				return
			}
			req, err := wire.DecodeRequest(payload)
			if err != nil {
				return
			}
			resp := &wire.Response{ID: req.ID, OK: true}
			if requests.Add(1) == 1 {
				resp.OK, resp.Err = false, fail
			}
			out, err := wire.EncodeResponse(resp)
			if err != nil || wire.WriteFrame(conn, out) != nil {
				return
			}
		}
	}()
	return ln.Addr().String(), requests
}

// The driver's retry loop resubmits exactly the rows the taxonomy table
// marks retryable: one row's failure followed by success costs two requests
// when the row is retryable and one (the failure, returned) when it is not.
func TestDriverResubmitsExactlyTheRetryableRows(t *testing.T) {
	for _, row := range governor.Taxonomy() {
		addr, requests := scriptedServer(t, wire.FromError(row.Err, 0))
		cl, err := wire.Dial(context.Background(), addr)
		if err != nil {
			t.Fatal(err)
		}
		c := &conn{cfg: config{tenant: "acme", retries: 3}, cl: cl}
		err = c.Ping(context.Background())
		cl.Close()
		if resubmitted := requests.Load() == 2; resubmitted != row.Retryable {
			t.Errorf("%s: %d requests, retryable = %v", row.Code, requests.Load(), row.Retryable)
		}
		if row.Retryable != (err == nil) {
			t.Errorf("%s: ping returned %v", row.Code, err)
		}
	}
}
