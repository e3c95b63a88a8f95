package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"testing"

	els "repro"
	"repro/internal/wire"
)

// opStatsGolden is the OpStats document the fixed sequence in
// opStatsDocument produced before the statistics sections were shared
// between els and wire. It is never regenerated: the document may gain
// keys, but every key in this file keeps its value, unless the work a
// value measures changes. peak_query_bytes is the executed COUNT(*)'s
// ledger peak: 75,136 while its root formed pairs in a 65,536-byte pair
// arena, 9,600 since it only counts them.
const opStatsGolden = "testdata/opstats.golden.json"

// timingKeys vary from run to run; the golden holds them to presence only.
var timingKeys = map[string]bool{
	"p50_ms": true, "p99_ms": true, "p99_admission_wait_ms": true,
	"uptime_ms": true, "drain_ms": true,
}

// addedKeys are the per-tenant keys served beyond the golden's: the rest
// of the tenant System's serving-layer section, and its plan cache.
var addedKeys = []string{
	"queue_wait_ns", "retries", "retry_successes",
	"breaker_opens", "breaker_rejections", "breaker_probes", "plan_cache",
}

// opStatsDocument starts a two-tenant server (durable under a data root or
// in memory), drives it through declare, estimate, one executed query and
// one failing request, and returns OpStats' document as the keys and
// values a client reads: the raw response frame through DecodeResponse,
// whose stats field holds the server's encoding/json bytes.
func opStatsDocument(t *testing.T, durable bool) map[string]any {
	t.Helper()
	srv, cl := startTestServer(t, func(c *Config) {
		if durable {
			c.DataRoot = t.TempDir()
		}
		boot := c.Tenants[0].Bootstrap
		c.Tenants[0].Bootstrap = func(sys *els.System) error {
			if err := boot(sys); err != nil {
				return err
			}
			if err := sys.GenerateTable("G", "k", "uniform", 200, 20, 0, 1); err != nil {
				return err
			}
			return sys.GenerateTable("H", "k", "uniform", 100, 20, 0, 2)
		}
	})
	ctx := context.Background()
	steps := []*wire.Request{
		{Op: wire.OpDeclare, Tenant: "a", Table: "D", Rows: 500, Distinct: map[string]float64{"y": 50}},
		{Op: wire.OpEstimate, Tenant: "b", SQL: "SELECT COUNT(*) FROM T"},
		{Op: wire.OpQuery, Tenant: "a", SQL: "SELECT COUNT(*) FROM G, H WHERE G.k = H.k"},
	}
	for _, req := range steps {
		if _, err := cl.Do(ctx, req); err != nil {
			t.Fatalf("%s on %s: %v", req.Op, req.Tenant, err)
		}
	}
	if _, err := cl.Do(ctx, &wire.Request{Op: wire.OpEstimate, Tenant: "b", SQL: "SELEKT"}); err == nil {
		t.Fatal("a malformed statement succeeded")
	}

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req, err := wire.EncodeRequest(&wire.Request{ID: 1, Op: wire.OpStats})
	if err != nil {
		t.Fatal(err)
	}
	if err := wire.WriteFrame(conn, req); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := wire.DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil {
		t.Fatalf("OpStats response has no stats document: %+v", resp)
	}
	raw, err := json.Marshal(resp.Stats)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestOpStatsGolden holds the wire observability document to the pinned
// one: every key the golden names is still served with the same value
// (timing keys: present), so a refactor of the statistics types can only
// add keys, and the added keys are served too. A key encoding/json drops
// silently — two embedded structs that share a tag both vanish — fails
// here as a missing key.
func TestOpStatsGolden(t *testing.T) {
	got := map[string]any{
		"memory":  opStatsDocument(t, false),
		"durable": opStatsDocument(t, true),
	}
	raw, err := os.ReadFile(opStatsGolden)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	same := containsDoc(t, "", want, got)
	for name, doc := range got {
		for i, ts := range doc.(map[string]any)["tenants"].([]any) {
			keys := addedKeys
			if i == 0 { // tenant "a" executed the query
				keys = append(keys[:len(keys):len(keys)], "max_qerror")
			}
			for _, k := range keys {
				if _, ok := ts.(map[string]any)[k]; !ok {
					t.Errorf("%s.tenants[%d]: no %q", name, i, k)
					same = false
				}
			}
		}
	}
	if !same {
		b, _ := json.MarshalIndent(got, "", "  ")
		t.Logf("served documents:\n%s", b)
	}
}

// containsDoc reports whether got holds every key of want with an equal
// value, reporting each difference under its path.
func containsDoc(t *testing.T, path string, want, got any) bool {
	t.Helper()
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			t.Errorf("%s: got %v, want an object", path, got)
			return false
		}
		keys := make([]string, 0, len(w))
		for k := range w {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		same := true
		for _, k := range keys {
			gv, ok := g[k]
			switch {
			case !ok:
				t.Errorf("%s.%s: missing", path, k)
				same = false
			case !timingKeys[k]:
				same = containsDoc(t, path+"."+k, w[k], gv) && same
			}
		}
		return same
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			t.Errorf("%s: got %v, want %d elements", path, got, len(w))
			return false
		}
		same := true
		for i := range w {
			same = containsDoc(t, fmt.Sprintf("%s[%d]", path, i), w[i], g[i]) && same
		}
		return same
	default:
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s = %v, want %v", path, got, want)
			return false
		}
		return true
	}
}

// A tenant's max_qerror is the worst Result.MaxQError it has executed: a
// Zipf-skewed join's, in the System's Stats and over OpStats alike, and a
// later exact query does not lower it.
func TestMaxQErrorOverOpStats(t *testing.T) {
	srv, cl := startTestServer(t, func(c *Config) {
		c.Tenants[0].Bootstrap = func(sys *els.System) error {
			if err := sys.GenerateTable("Z1", "k", "zipf", 2000, 100, 1, 1); err != nil {
				return err
			}
			return sys.GenerateTable("Z2", "k", "zipf", 1000, 100, 1, 2)
		}
	})
	sys := srv.System("a")
	if got := statsFor(t, cl, "a").MaxQError; got != 0 {
		t.Fatalf("max_qerror %v before any query, want 0 (omitted)", got)
	}
	res, err := sys.Query("SELECT COUNT(*) FROM Z1, Z2 WHERE Z1.k = Z2.k", els.AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxQError <= 1 {
		t.Fatalf("the skewed join estimated exactly (max q-error %v); it tests nothing\n%s", res.MaxQError, res.FormatAnalyze())
	}
	if _, err := sys.Query("SELECT COUNT(*) FROM Z1", els.AlgorithmELS); err != nil {
		t.Fatal(err)
	}
	if got := sys.Stats().Robustness.MaxQError; got != res.MaxQError {
		t.Errorf("Stats().Robustness.MaxQError = %v, want the join's %v", got, res.MaxQError)
	}
	if got := statsFor(t, cl, "a").MaxQError; got != res.MaxQError {
		t.Errorf("OpStats max_qerror = %v, want the join's %v", got, res.MaxQError)
	}
}
