package repl

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// runLines executes the lines and returns the combined output.
func runLines(t *testing.T, lines ...string) string {
	t.Helper()
	var out strings.Builder
	p := New(&out)
	for _, l := range lines {
		quit, err := p.Execute(l)
		if err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if quit {
			break
		}
	}
	return out.String()
}

func TestQuitAndComments(t *testing.T) {
	var out strings.Builder
	p := New(&out)
	for _, l := range []string{"", "-- comment", "# another"} {
		if quit, _ := p.Execute(l); quit {
			t.Errorf("%q should not quit", l)
		}
	}
	for _, l := range []string{"quit", "exit", "\\q"} {
		p := New(&out)
		if quit, _ := p.Execute(l); !quit {
			t.Errorf("%q should quit", l)
		}
	}
}

func TestHelpAndAlgos(t *testing.T) {
	out := runLines(t, "help", "algos")
	if !strings.Contains(out, "declare") || !strings.Contains(out, "ELS") {
		t.Errorf("help/algos output:\n%s", out)
	}
}

func TestDeclareAndEstimate(t *testing.T) {
	out := runLines(t,
		"declare R1 100 x=10",
		"declare R2 1000 y=100",
		"declare R3 1000 z=1000",
		"estimate SELECT COUNT(*) FROM R1, R2, R3 WHERE x = y AND y = z",
	)
	if !strings.Contains(out, "estimated size: 1000") {
		t.Errorf("output:\n%s", out)
	}
}

func TestAlgoSwitching(t *testing.T) {
	out := runLines(t,
		"declare R1 100 x=10",
		"declare R2 1000 y=100",
		"declare R3 1000 z=1000",
		"algo SM+PTC",
		"estimate SELECT COUNT(*) FROM R2, R3, R1 WHERE R1.x = R2.y AND R2.y = R3.z",
		"algo nonsense",
		"algo",
	)
	if !strings.Contains(out, "algorithm: SM+PTC") {
		t.Errorf("algo switch missing:\n%s", out)
	}
	if !strings.Contains(out, "unknown algorithm") {
		t.Errorf("bad algo not reported:\n%s", out)
	}
	if !strings.Contains(out, "current: SM+PTC") {
		t.Errorf("current algo not shown:\n%s", out)
	}
}

func TestTablesAndStats(t *testing.T) {
	out := runLines(t,
		"tables",
		"declare R 50 a=5 b=10",
		"tables",
		"stats R",
		"stats missing",
		"stats",
	)
	if !strings.Contains(out, "no tables") {
		t.Errorf("empty tables not reported:\n%s", out)
	}
	if !strings.Contains(out, "R  card=50") {
		t.Errorf("tables listing wrong:\n%s", out)
	}
	if !strings.Contains(out, "a: distinct=5") || !strings.Contains(out, "b: distinct=10") {
		t.Errorf("stats output wrong:\n%s", out)
	}
	if !strings.Contains(out, "error:") {
		t.Errorf("missing table error not shown:\n%s", out)
	}
}

func TestGenAndSelect(t *testing.T) {
	out := runLines(t,
		"gen T k uniform 100 10 seed=7",
		"SELECT COUNT(*) FROM T WHERE k < 5",
	)
	if !strings.Contains(out, "generated T") {
		t.Errorf("gen output:\n%s", out)
	}
	if !strings.Contains(out, "row(s), estimated") {
		t.Errorf("select output:\n%s", out)
	}
}

func TestGenZipfAndCompare(t *testing.T) {
	out := runLines(t,
		"gen A k uniform 100 10 seed=1",
		"gen B k uniform 200 10 seed=2",
		"compare SELECT COUNT(*) FROM A, B WHERE A.k = B.k",
	)
	if !strings.Contains(out, "SM+PTC") || !strings.Contains(out, "ELS") {
		t.Errorf("compare output:\n%s", out)
	}
}

func TestExplain(t *testing.T) {
	out := runLines(t,
		"declare S 1000 s=1000",
		"declare M 10000 m=10000",
		"explain SELECT COUNT(*) FROM S, M WHERE s = m AND s < 100",
	)
	if !strings.Contains(out, "plan:") || !strings.Contains(out, "implied by transitive closure") {
		t.Errorf("explain output:\n%s", out)
	}
}

func TestLoadCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "data.csv")
	if err := os.WriteFile(path, []byte("k,v\n1,10\n2,20\n3,30\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runLines(t,
		"load T "+path+" header hist=4",
		"SELECT COUNT(*) FROM T WHERE k < 3",
	)
	if !strings.Contains(out, "loaded T (3 rows)") {
		t.Errorf("load output:\n%s", out)
	}
	if !strings.Contains(out, "2 row(s)") {
		t.Errorf("query output:\n%s", out)
	}
}

func TestBadInputsDoNotCrash(t *testing.T) {
	out := runLines(t,
		"frobnicate",
		"declare",
		"declare T abc",
		"declare T 10 bad",
		"declare T 10 x=abc",
		"load",
		"load T /nonexistent/file.csv",
		"load T x unknownopt",
		"load T x hist=zz",
		"gen",
		"gen T k uniform aa bb",
		"gen T k uniform 10 5 theta=x",
		"gen T k uniform 10 5 seed=x",
		"gen T k uniform 10 5 what=1",
		"gen T k bogus 10 5",
		"estimate",
		"explain",
		"compare",
		"estimate SELECT COUNT(*) FROM missing",
		"explain SELECT garbage(",
		"SELECT COUNT(*) FROM missing",
		"compare SELECT nope",
	)
	if !strings.Contains(out, "unknown command") {
		t.Errorf("unknown command not reported:\n%s", out)
	}
	if !strings.Contains(out, "usage:") {
		t.Errorf("usage hints missing:\n%s", out)
	}
	if strings.Count(out, "error:") < 4 {
		t.Errorf("errors should be reported inline:\n%s", out)
	}
}

func TestProjectionQueryPrintsRows(t *testing.T) {
	out := runLines(t,
		"gen T k sequential 5 5 seed=3",
		"SELECT T.k FROM T WHERE k < 2",
	)
	if !strings.Contains(out, "T.k") {
		t.Errorf("projection header missing:\n%s", out)
	}
	if !strings.Contains(out, "2 row(s)") {
		t.Errorf("row count missing:\n%s", out)
	}
}

func TestAnalyzeCommand(t *testing.T) {
	out := runLines(t,
		"gen A k uniform 50 5 seed=1",
		"gen B k uniform 80 5 seed=2",
		"analyze SELECT COUNT(*) FROM A, B WHERE A.k = B.k",
		"analyze",
		"analyze SELECT nope",
	)
	if !strings.Contains(out, "est=") || !strings.Contains(out, "actual=") {
		t.Errorf("analyze output missing node stats:\n%s", out)
	}
	if !strings.Contains(out, "usage: analyze") || !strings.Contains(out, "error:") {
		t.Errorf("analyze error handling missing:\n%s", out)
	}
}

func TestGroupByThroughREPL(t *testing.T) {
	out := runLines(t,
		"gen T k sequential 30 3 seed=1",
		"SELECT k, COUNT(*) FROM T GROUP BY k",
	)
	if !strings.Contains(out, "3 row(s)") {
		t.Errorf("GROUP BY output:\n%s", out)
	}
	if !strings.Contains(out, "COUNT(*)") {
		t.Errorf("aggregate column header missing:\n%s", out)
	}
}

func TestSystemAccessor(t *testing.T) {
	p := New(&strings.Builder{})
	if p.System() == nil {
		t.Error("System() should not be nil")
	}
}

// runDurable executes the lines against a processor backed by dataDir.
func runDurable(t *testing.T, dataDir string, lines ...string) string {
	t.Helper()
	var out strings.Builder
	p, err := NewAt(&out, dataDir)
	if err != nil {
		t.Fatalf("NewAt(%s): %v", dataDir, err)
	}
	for _, l := range lines {
		quit, err := p.Execute(l)
		if err != nil {
			t.Fatalf("line %q: %v", l, err)
		}
		if quit {
			break
		}
	}
	return out.String()
}

// A durable session's declarations survive into a second session over the
// same directory, and "recover" mid-session replays the directory too.
func TestDurableSessionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	out := runDurable(t, dir,
		"declare R 1000 x=100",
		"checkpoint",
		"declare S 500 y=50",
		"serving",
	)
	if !strings.Contains(out, "checkpoint written: version 2") {
		t.Errorf("checkpoint not acknowledged:\n%s", out)
	}
	if !strings.Contains(out, "durable: wal=") ||
		!strings.Contains(out, "checkpoint-version=2") ||
		!strings.Contains(out, "records-since-checkpoint=1") {
		t.Errorf("serving durability line wrong:\n%s", out)
	}

	// Second session: both tables recovered (S from the WAL suffix).
	out = runDurable(t, dir, "tables", "recover", "tables")
	if strings.Count(out, "R  card=1000") != 2 || strings.Count(out, "S  card=500") != 2 {
		t.Errorf("recovered catalog wrong:\n%s", out)
	}
	if !strings.Contains(out, "recovered "+dir+": catalog version 3 (checkpoint 2 + 1 wal records)") {
		t.Errorf("recover report wrong:\n%s", out)
	}
}

// "recover <dir>" attaches an in-memory session to a durable directory;
// without an argument an in-memory session explains what to do.
func TestRecoverExplicitDir(t *testing.T) {
	dir := t.TempDir()
	runDurable(t, dir, "declare R 1000 x=100")

	out := runLines(t, "recover", "checkpoint", "recover "+dir, "tables", "checkpoint")
	if !strings.Contains(out, "no data directory") {
		t.Errorf("bare recover on in-memory session should explain itself:\n%s", out)
	}
	// Checkpoint before attaching fails with the durability error; after
	// attaching it succeeds.
	if !strings.Contains(out, "error: els: durability failure") {
		t.Errorf("checkpoint on in-memory session should fail:\n%s", out)
	}
	if !strings.Contains(out, "R  card=1000") {
		t.Errorf("explicit recover did not load the catalog:\n%s", out)
	}
	if !strings.Contains(out, "checkpoint written:") {
		t.Errorf("checkpoint after attach should succeed:\n%s", out)
	}
}

// An in-memory session shows no durability line in serving output.
func TestServingNoDurableLine(t *testing.T) {
	out := runLines(t, "serving")
	if strings.Contains(out, "durable:") {
		t.Errorf("in-memory serving output should have no durable line:\n%s", out)
	}
}

// The serving line surfaces plan-cache counters, the cache limits verbs
// flip the plan cache, and the executor has no engine switch left to flip.
func TestServingPlanCacheAndLimitsVerbs(t *testing.T) {
	out := runLines(t,
		"declare R 1000 x=100",
		"estimate SELECT COUNT(*) FROM R",
		"estimate SELECT COUNT(*) FROM R",
		"serving",
	)
	// The repeat was the same text, so its hit skipped the front end.
	if !strings.Contains(out, "plan-cache: hits=1 misses=1 hit-rate=0.500 text-hits=1") {
		t.Errorf("serving output misses plan-cache counters:\n%s", out)
	}

	out = runLines(t, "limits cache=off plan-cache-size=7", "limits")
	if !strings.Contains(out, "cache=off plan-cache-size=7") {
		t.Errorf("limits verbs did not round-trip:\n%s", out)
	}
	out = runLines(t, "limits columnar=off")
	if !strings.Contains(out, `unknown limit "columnar"`) {
		t.Errorf("columnar is still a limits key:\n%s", out)
	}
	out = runLines(t, "limits cache=maybe")
	if !strings.Contains(out, "want on or off") {
		t.Errorf("bad cache value not rejected:\n%s", out)
	}
	// With the cache off, repeats stay cold.
	out = runLines(t,
		"declare R 1000 x=100",
		"limits cache=off",
		"estimate SELECT COUNT(*) FROM R",
		"estimate SELECT COUNT(*) FROM R",
		"serving",
	)
	if !strings.Contains(out, "plan-cache: hits=0 misses=0") {
		t.Errorf("disabled cache was still consulted:\n%s", out)
	}
}

// A durable session attaches a read replica, ships its declarations,
// reports per-replica status, and fails over with "replica promote": the
// promoted replica becomes the writable session catalog.
func TestReplicaCommands(t *testing.T) {
	root := t.TempDir()
	primary := filepath.Join(root, "primary")
	repDir := filepath.Join(root, "r0")

	var out strings.Builder
	p, err := NewAt(&out, primary)
	if err != nil {
		t.Fatal(err)
	}
	run := func(line string) {
		t.Helper()
		if _, err := p.Execute(line); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
	}
	run("declare R 1000 x=100")
	run("replica attach " + repDir)
	if !strings.Contains(out.String(), "replica r0 attached") {
		t.Fatalf("attach not acknowledged:\n%s", out.String())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := p.System().WaitForReplicas(ctx); err != nil {
		t.Fatal(err)
	}

	run("limits max-replica-lag=2")
	if !strings.Contains(out.String(), "max-replica-lag=2") {
		t.Errorf("limits line misses max-replica-lag:\n%s", out.String())
	}
	run("replica status")
	got := out.String()
	for _, want := range []string{"primary: version=", "shipper: shipped=", "replica r0: version=", "lag=0"} {
		if !strings.Contains(got, want) {
			t.Errorf("status output misses %q:\n%s", want, got)
		}
	}

	run("replica promote r0")
	if !strings.Contains(out.String(), "replica r0 promoted") {
		t.Fatalf("promote not acknowledged:\n%s", out.String())
	}
	run("replica status")
	if !strings.Contains(out.String(), "no replicas attached") {
		t.Errorf("promoted replica still listed:\n%s", out.String())
	}
	// The promoted catalog is writable and carries the shipped statistics.
	run("declare S 500 y=50")
	run("tables")
	got = out.String()
	if !strings.Contains(got, "R  card=1000") || !strings.Contains(got, "S  card=500") {
		t.Errorf("promoted session catalog wrong:\n%s", got)
	}

	run("replica")
	run("replica promote nope")
	got = out.String()
	if !strings.Contains(got, "usage: replica attach") || !strings.Contains(got, `no attached replica "nope"`) {
		t.Errorf("replica usage/error output wrong:\n%s", got)
	}
	cctx, ccancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer ccancel()
	if err := p.System().Close(cctx); err != nil {
		t.Errorf("closing promoted session: %v", err)
	}
}

// The memory limit verb round-trips, and a budgeted join big enough to
// overflow it spills to disk through the REPL, surfacing in the serving
// output's memory counters.
func TestLimitsMemoryVerbAndSpill(t *testing.T) {
	out := runLines(t, "limits memory=4096", "limits")
	if !strings.Contains(out, "memory=4096") {
		t.Errorf("limits memory=N did not round-trip:\n%s", out)
	}
	out = runLines(t, "limits memory=oops")
	if !strings.Contains(out, `bad memory limit "oops"`) {
		t.Errorf("bad memory value not rejected:\n%s", out)
	}

	out = runLines(t,
		"gen H1 k uniform 900 40",
		"gen H2 k uniform 1100 40",
		"limits memory=4096",
		"SELECT COUNT(*) FROM H1, H2 WHERE H1.k = H2.k",
		"serving",
	)
	if !strings.Contains(out, "row(s)") {
		t.Errorf("budgeted join did not complete:\n%s", out)
	}
	if !strings.Contains(out, "spilled-queries=1") {
		t.Errorf("serving output misses the spill:\n%s", out)
	}
	if strings.Contains(out, "peak-query-bytes=0") {
		t.Errorf("peak query bytes not tracked:\n%s", out)
	}
}
