// Package driver is a database/sql driver for elsserve, the networked
// multi-tenant estimation server. Register is implicit:
//
//	import _ "repro/driver"
//	db, err := sql.Open("els", "els://127.0.0.1:7447/acme?timeout=5s&retries=3")
//
// # DSN
//
// els://host:port/tenant[?options] — the path selects the tenant, and
// the options bound the client side of the bulkhead:
//
//	timeout=30s   per-statement deadline when the caller's context has
//	              none; propagated to the server so its admission queue,
//	              planner, and executor run under the same budget
//	algo=els      estimation algorithm for queries/estimates/explains
//	retries=0     extra attempts for failures els.Retryable reports
//	              (overload sheds, transient internal errors, stale
//	              replicas), honoring the server's Retry-After hint
//
// # Statement dialect
//
// The server estimates and executes the repo's SELECT dialect; the
// driver adds three prefixes of its own:
//
//	SELECT ...                      executed query (rows, or one count row)
//	ESTIMATE SELECT ...             estimate only — one row: algorithm,
//	                                final_size, catalog_version, join_order
//	EXPLAIN SELECT ...              one row, one column: the plan text
//	DECLARE STATS t 1000 a=10,b=25  Exec: declare table statistics
//
// Placeholders are not supported (the dialect has no parameters); any
// bind args fail with a typed parse error.
//
// # Typed errors
//
// Every server-side failure surfaces as an error for which errors.Is
// against the els taxonomy sentinels holds (els.ErrOverloaded,
// els.ErrParse, els.ErrTenant, ...), exactly as if the call were
// in-process. Torn transport on a read-only statement maps to
// driver.ErrBadConn so database/sql retires the connection and retries
// on a fresh one; a torn DECLARE is NOT ErrBadConn — the mutation may
// have been applied, and blind replay would double-acknowledge — it
// surfaces as a typed wire error for the caller to reconcile by digest.
package driver

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"errors"
	"fmt"
	"io"
	"net/url"
	"strconv"
	"strings"
	"time"

	els "repro"
	"repro/internal/wire"
)

func init() {
	sql.Register("els", &Driver{})
}

// Driver implements database/sql/driver.Driver and DriverContext.
type Driver struct{}

// Open dials using the connector with no dial bound beyond the DSN's
// timeout (database/sql's context-less entry point).
func (d *Driver) Open(dsn string) (driver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background()) //ctxflow:allow database/sql Driver.Open has no context
}

// OpenConnector parses the DSN once; the pool dials through the
// connector with its own contexts.
func (d *Driver) OpenConnector(dsn string) (driver.Connector, error) {
	cfg, err := parseDSN(dsn)
	if err != nil {
		return nil, err
	}
	return &connector{cfg: cfg, drv: d}, nil
}

// config is one parsed DSN.
type config struct {
	addr    string
	tenant  string
	timeout time.Duration
	algo    string
	retries int
}

func parseDSN(dsn string) (config, error) {
	u, err := url.Parse(dsn)
	if err != nil {
		return config{}, fmt.Errorf("%w: parsing DSN: %w", els.ErrParse, err)
	}
	if u.Scheme != "els" {
		return config{}, fmt.Errorf("%w: DSN scheme must be els://, got %q", els.ErrParse, u.Scheme)
	}
	cfg := config{
		addr:    u.Host,
		tenant:  strings.Trim(u.Path, "/"),
		timeout: wire.DefaultOpTimeout,
	}
	if cfg.addr == "" {
		return config{}, fmt.Errorf("%w: DSN has no host:port", els.ErrParse)
	}
	if cfg.tenant == "" || strings.Contains(cfg.tenant, "/") {
		return config{}, fmt.Errorf("%w: DSN path must be exactly one tenant name", els.ErrParse)
	}
	q := u.Query()
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return config{}, fmt.Errorf("%w: bad timeout %q", els.ErrParse, v)
		}
		cfg.timeout = d
	}
	cfg.algo = q.Get("algo")
	if v := q.Get("retries"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return config{}, fmt.Errorf("%w: bad retries %q", els.ErrParse, v)
		}
		cfg.retries = n
	}
	return cfg, nil
}

type connector struct {
	cfg config
	drv *Driver
}

func (c *connector) Connect(ctx context.Context) (driver.Conn, error) {
	cl, err := wire.Dial(ctx, c.cfg.addr)
	if err != nil {
		return nil, err
	}
	cl.OpTimeout = c.cfg.timeout
	return &conn{cfg: c.cfg, cl: cl}, nil
}

func (c *connector) Driver() driver.Driver { return c.drv }

// conn is one wire connection. database/sql serializes calls per conn,
// matching the wire client's one-in-flight discipline.
type conn struct {
	cfg config
	cl  *wire.Client
}

func (c *conn) Close() error { return c.cl.Close() }

// Begin is required by driver.Conn; the server has no transactions.
func (c *conn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("%w: transactions are not supported", els.ErrParse)
}

// IsValid keeps torn connections out of the pool.
func (c *conn) IsValid() bool { return !c.cl.Broken() }

// Ping round-trips a tenant-routed ping, so it also verifies the tenant
// exists and is not quarantined.
func (c *conn) Ping(ctx context.Context) error {
	_, err := c.do(ctx, &wire.Request{Op: wire.OpPing, Tenant: c.cfg.tenant}, true)
	return err
}

func (c *conn) Prepare(query string) (driver.Stmt, error) {
	return &stmt{c: c, query: query}, nil
}

func (c *conn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("%w: the els dialect has no placeholders", els.ErrParse)
	}
	return c.query(ctx, query)
}

func (c *conn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("%w: the els dialect has no placeholders", els.ErrParse)
	}
	return c.exec(ctx, query)
}

// query routes one read statement by its driver-level prefix.
func (c *conn) query(ctx context.Context, q string) (driver.Rows, error) {
	trimmed := strings.TrimSpace(q)
	upper := strings.ToUpper(trimmed)
	switch {
	case strings.HasPrefix(upper, "ESTIMATE"):
		resp, err := c.do(ctx, &wire.Request{
			Op: wire.OpEstimate, Tenant: c.cfg.tenant,
			SQL: strings.TrimSpace(trimmed[len("ESTIMATE"):]), Algo: c.cfg.algo,
		}, true)
		if err != nil {
			return nil, err
		}
		e := resp.Estimate
		return &rows{
			cols: []string{"algorithm", "final_size", "catalog_version", "join_order"},
			data: [][]driver.Value{{e.Algorithm, e.FinalSize, int64(e.CatalogVersion), strings.Join(e.JoinOrder, ",")}},
		}, nil
	case strings.HasPrefix(upper, "EXPLAIN"):
		resp, err := c.do(ctx, &wire.Request{
			Op: wire.OpExplain, Tenant: c.cfg.tenant,
			SQL: strings.TrimSpace(trimmed[len("EXPLAIN"):]), Algo: c.cfg.algo,
		}, true)
		if err != nil {
			return nil, err
		}
		return &rows{cols: []string{"plan"}, data: [][]driver.Value{{resp.Explain}}}, nil
	default:
		resp, err := c.do(ctx, &wire.Request{
			Op: wire.OpQuery, Tenant: c.cfg.tenant, SQL: trimmed, Algo: c.cfg.algo,
		}, true)
		if err != nil {
			return nil, err
		}
		res := resp.Result
		if len(res.Columns) == 0 {
			// A bare COUNT(*) query: surface the count as one row.
			return &rows{cols: []string{"count"}, data: [][]driver.Value{{res.Count}}}, nil
		}
		out := &rows{cols: res.Columns}
		for _, r := range res.Rows {
			vals := make([]driver.Value, len(r))
			for i, s := range r {
				vals[i] = s
			}
			out.data = append(out.data, vals)
		}
		return out, nil
	}
}

// exec handles DECLARE STATS — the one mutating statement.
func (c *conn) exec(ctx context.Context, q string) (driver.Result, error) {
	req, err := parseDeclare(q)
	if err != nil {
		return nil, err
	}
	req.Tenant = c.cfg.tenant
	resp, err := c.do(ctx, req, false)
	if err != nil {
		return nil, err
	}
	return declareResult{version: int64(resp.Version)}, nil
}

// parseDeclare parses `DECLARE STATS <table> <rows> [col=d,col=d,...]`.
func parseDeclare(q string) (*wire.Request, error) {
	fields := strings.Fields(q)
	if len(fields) < 4 || !strings.EqualFold(fields[0], "DECLARE") || !strings.EqualFold(fields[1], "STATS") {
		return nil, fmt.Errorf("%w: Exec accepts only DECLARE STATS <table> <rows> [col=distinct,...]", els.ErrParse)
	}
	rowsN, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return nil, fmt.Errorf("%w: bad row count %q", els.ErrParse, fields[3])
	}
	req := &wire.Request{Op: wire.OpDeclare, Table: fields[2], Rows: rowsN}
	if len(fields) > 4 {
		req.Distinct = make(map[string]float64)
		for _, part := range strings.Split(strings.Join(fields[4:], ""), ",") {
			col, val, ok := strings.Cut(part, "=")
			if !ok {
				return nil, fmt.Errorf("%w: bad column spec %q (want col=distinct)", els.ErrParse, part)
			}
			d, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("%w: bad distinct count %q for column %q", els.ErrParse, val, col)
			}
			req.Distinct[col] = d
		}
	}
	return req, nil
}

// do performs one round trip with the configured retry budget. Retries
// fire only on failures els.Retryable reports — the same predicate as
// the in-process retry loop and the server's wire flag — waiting out the
// server's Retry-After hint between attempts. idempotent additionally
// maps torn transport to driver.ErrBadConn (pool-level retry on a fresh
// connection); mutations never take either retry path.
func (c *conn) do(ctx context.Context, req *wire.Request, idempotent bool) (*wire.Response, error) {
	retries := c.cfg.retries
	if !idempotent {
		retries = 0
	}
	for attempt := 0; ; attempt++ {
		resp, err := c.cl.Do(ctx, &wire.Request{
			Op: req.Op, Tenant: req.Tenant, SQL: req.SQL, Algo: req.Algo,
			Table: req.Table, Rows: req.Rows, Distinct: req.Distinct,
		})
		if err == nil {
			return resp, nil
		}
		if idempotent && errors.Is(err, els.ErrBadWire) {
			return nil, driver.ErrBadConn
		}
		var remote *wire.RemoteError
		if attempt >= retries || !errors.As(err, &remote) || !els.Retryable(err) {
			return nil, err
		}
		if werr := waitRetry(ctx, remote.RetryAfter()); werr != nil {
			return nil, werr
		}
	}
}

// waitRetry sleeps the server's hint (or a 1ms floor), aborting with the
// caller's cancellation.
func waitRetry(ctx context.Context, hint time.Duration) error {
	if hint <= 0 {
		hint = time.Millisecond
	}
	t := time.NewTimer(hint)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", els.ErrCanceled, ctx.Err())
	}
}

// stmt is a trivial prepared statement (the dialect has no parameters,
// so preparing is just remembering the text).
type stmt struct {
	c     *conn
	query string
}

func (s *stmt) Close() error  { return nil }
func (s *stmt) NumInput() int { return 0 }

func (s *stmt) Exec(args []driver.Value) (driver.Result, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("%w: the els dialect has no placeholders", els.ErrParse)
	}
	return s.c.exec(context.Background(), s.query) //ctxflow:allow database/sql Stmt.Exec has no context
}

func (s *stmt) Query(args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, fmt.Errorf("%w: the els dialect has no placeholders", els.ErrParse)
	}
	return s.c.query(context.Background(), s.query) //ctxflow:allow database/sql Stmt.Query has no context
}

func (s *stmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	return s.c.ExecContext(ctx, s.query, args)
}

func (s *stmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	return s.c.QueryContext(ctx, s.query, args)
}

// declareResult acknowledges a DECLARE STATS: LastInsertId carries the
// acknowledged catalog version (fsynced before the server answered, on a
// durable tenant).
type declareResult struct{ version int64 }

func (r declareResult) LastInsertId() (int64, error) { return r.version, nil }
func (r declareResult) RowsAffected() (int64, error) { return 0, nil }

// rows is a fully materialized driver.Rows (the server caps row payloads
// via els.Limits.MaxRows, so materializing is bounded).
type rows struct {
	cols []string
	data [][]driver.Value
	next int
}

func (r *rows) Columns() []string { return r.cols }
func (r *rows) Close() error      { return nil }

func (r *rows) Next(dest []driver.Value) error {
	if r.next >= len(r.data) {
		return io.EOF
	}
	copy(dest, r.data[r.next])
	r.next++
	return nil
}
