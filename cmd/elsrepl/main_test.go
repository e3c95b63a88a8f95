package main

import (
	"os"
	"regexp"
	"strings"
	"testing"

	els "repro"
)

// A scripted session must round-trip: generate data, estimate, execute, and
// report a COUNT(*) result that matches the join's true size.
func TestScriptedRoundTrip(t *testing.T) {
	// Single-value domains make the join an exact cross product, so the
	// estimate and the executed count are both exactly 50*40.
	script := strings.Join([]string{
		"gen R x uniform 50 1 seed=1",
		"gen S x uniform 40 1 seed=2",
		"estimate SELECT COUNT(*) FROM R, S WHERE R.x = S.x",
		"SELECT COUNT(*) FROM R, S WHERE R.x = S.x",
		"quit",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, els.Limits{}, "", false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"generated R (50 rows, uniform)",
		"generated S (40 rows, uniform)",
		"estimated size: 2000",
		"2000 row(s)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// Bad input is reported on the session's output and must not abort the
// session: commands after the failure still run, and a piped session then
// reports that commands failed. An interactive session reports nothing.
func TestErrorsDoNotAbortSession(t *testing.T) {
	script := strings.Join([]string{
		"frobnicate",                           // unknown command
		"estimate SELECT COUNT(*) FROM nosuch", // unknown table
		"declare R 1000 x=100",                 // session still alive
		"tables",
	}, "\n")
	var out strings.Builder
	err := run(strings.NewReader(script), &out, els.Limits{}, "", false)
	if err == nil || err.Error() != "2 command(s) failed" {
		t.Errorf("piped session with two failed commands: err = %v", err)
	}
	var tty strings.Builder
	if err := run(strings.NewReader(script), &tty, els.Limits{}, "", true); err != nil {
		t.Errorf("interactive session: err = %v, want nil", err)
	}
	got := out.String()
	if !strings.Contains(got, `unknown command "frobnicate"`) {
		t.Errorf("missing unknown-command report:\n%s", got)
	}
	if !strings.Contains(got, "error:") {
		t.Errorf("missing error report for unknown table:\n%s", got)
	}
	if !strings.Contains(got, "R  card=1000") {
		t.Errorf("session did not survive errors:\n%s", got)
	}
}

// A script whose final line has no trailing newline (mid-line EOF) still
// executes that line, and the session ends cleanly instead of erroring or
// dropping the command.
func TestMidLineEOFExecutesFinalCommand(t *testing.T) {
	script := "declare R 1000 x=100\ntables" // no trailing newline
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, els.Limits{}, "", false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "R  card=1000") {
		t.Errorf("final unterminated command did not run:\n%s", out.String())
	}
}

// Malformed limits arguments — negative values, missing values, unknown
// keys, bad durations — are reported with a usage hint and leave both the
// session and the previously set limits intact.
func TestMalformedLimitsArgs(t *testing.T) {
	script := strings.Join([]string{
		"limits tuples=5",
		"limits tuples=-3",        // negative
		"limits tuples=",          // missing value
		"limits nonsense",         // not key=value
		"limits frobs=7",          // unknown key
		"limits queue-timeout=3x", // bad duration
		"limits",                  // prior setting must survive the noise
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, els.Limits{}, "", false); err == nil || err.Error() != "5 command(s) failed" {
		t.Errorf("err = %v, want the five malformed lines counted", err)
	}
	got := out.String()
	for _, want := range []string{
		"tuples must not be negative",
		`malformed limit "tuples="`,
		`malformed limit "nonsense"`,
		`unknown limit "frobs"`,
		`bad queue-timeout "3x"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Count(got, "usage: limits") < 4 {
		t.Errorf("malformed args should print the usage hint:\n%s", got)
	}
	if !strings.Contains(got, "tuples=5") {
		t.Errorf("valid limit lost after malformed attempts:\n%s", got)
	}
}

// Admission limits are settable from the shell and visible in the serving
// counters; an admission-controlled scripted session still executes
// queries (they serialize instead of shedding).
func TestAdmissionLimitsInSession(t *testing.T) {
	script := strings.Join([]string{
		"gen R x uniform 50 1 seed=1",
		"limits max-concurrent=1 max-queue=2 queue-timeout=1s",
		"SELECT COUNT(*) FROM R",
		"serving",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, els.Limits{}, "", false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "max-concurrent=1 max-queue=2 queue-timeout=1s") {
		t.Errorf("admission limits not echoed:\n%s", got)
	}
	if !strings.Contains(got, "50 row(s)") {
		t.Errorf("query under admission control failed:\n%s", got)
	}
	if !strings.Contains(got, "admitted=1") || !strings.Contains(got, "catalog version:") {
		t.Errorf("serving counters missing:\n%s", got)
	}
}

// Budgets passed via flags govern queries, and the limits command can
// inspect and clear them mid-session.
func TestLimitsGovernSession(t *testing.T) {
	script := strings.Join([]string{
		"gen R x uniform 50 1 seed=1",
		"gen S x uniform 40 1 seed=2",
		"limits",
		"SELECT COUNT(*) FROM R, S WHERE R.x = S.x", // budget hit
		"limits off",
		"SELECT COUNT(*) FROM R, S WHERE R.x = S.x", // now succeeds
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, els.Limits{MaxTuples: 1}, "", false); err == nil || err.Error() != "1 command(s) failed" {
		t.Errorf("err = %v, want the budgeted query counted as failed", err)
	}
	got := out.String()
	if !strings.Contains(got, "tuples=1") {
		t.Errorf("limits command does not show flag-provided budget:\n%s", got)
	}
	if !strings.Contains(got, "budget exceeded") {
		t.Errorf("budgeted query did not fail:\n%s", got)
	}
	if !strings.Contains(got, "2000 row(s)") {
		t.Errorf("query after 'limits off' did not succeed:\n%s", got)
	}
}

// A -data-dir session persists declarations across runs: the second run
// recovers the catalog written (and checkpointed on exit) by the first.
func TestDurableSessionPersists(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	script := "declare R 1000 x=100\ndeclare S 500 y=50\nquit\n"
	if err := run(strings.NewReader(script), &out, els.Limits{}, dir, false); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run(strings.NewReader("tables\nserving\n"), &out, els.Limits{}, dir, false); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "R  card=1000") || !strings.Contains(got, "S  card=500") {
		t.Errorf("catalog did not survive restart:\n%s", got)
	}
	// Exit checkpointed: the recovered WAL holds no un-compacted records.
	if !strings.Contains(got, "records-since-checkpoint=0") {
		t.Errorf("exit checkpoint missing (WAL not compacted):\n%s", got)
	}
}

// README's Section 8 script declares the paper's four tables and explains
// the experiment query under every algorithm. Piped into a session it
// succeeds, and its output is pinned in testdata/section8.out, which CI
// also diffs the built binary's output against.
func TestReadmeScript(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile("(?s)elsrepl <<'EOF'\n(.*?)\nEOF\n").FindStringSubmatch(string(raw))
	if m == nil {
		t.Fatal("README has no elsrepl <<'EOF' script")
	}
	script := m[1]
	for _, a := range els.Algorithms() {
		if !strings.Contains(script, "\nalgo "+a.String()+"\nexplain ") {
			t.Errorf("README script does not explain under %s", a)
		}
	}
	want, err := os.ReadFile("testdata/section8.out")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, els.Limits{}, "", false); err != nil {
		t.Fatalf("README script: %v\n%s", err, out.String())
	}
	if got := out.String(); got != string(want) {
		t.Errorf("README script output differs from testdata/section8.out; regenerate with\n"+
			"  awk '/elsrepl <<.EOF./{on=1;next} /^EOF$/{on=0} on' README.md | go run ./cmd/elsrepl > cmd/elsrepl/testdata/section8.out\n"+
			"got:\n%s", got)
	}
}

// "limits plans=N" budgets plan enumeration: a four-table explain over a
// one-plan budget fails with the typed budget error and fails the script.
func TestPlanBudgetFailsTheScript(t *testing.T) {
	script := strings.Join([]string{
		"declare S 1000 s=1000",
		"declare M 10000 m=10000",
		"declare B 50000 b=50000",
		"declare G 100000 g=100000",
		"limits plans=1",
		"explain SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g",
	}, "\n")
	var out strings.Builder
	if err := run(strings.NewReader(script), &out, els.Limits{}, "", false); err == nil {
		t.Error("a script whose explain exceeds the plans budget must fail")
	}
	if !strings.Contains(out.String(), "error: "+els.ErrBudgetExceeded.Error()) {
		t.Errorf("explain under plans=1 did not report the budget error:\n%s", out.String())
	}
}

// "gen" in a -data-dir session records the generated table's statistics,
// computed from its rows, through the WAL: a later session recovers the
// exact row count and distinct count without the data.
func TestGenRecordsExactStatsInDataDir(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(strings.NewReader("gen mytab s sequential 50 50\n"), &out, els.Limits{}, dir, false); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	out.Reset()
	if err := run(strings.NewReader("stats mytab\n"), &out, els.Limits{}, dir, false); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"mytab: card=50\n", "  s: distinct=50\n"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("recovered stats miss %q:\n%s", want, out.String())
		}
	}
}
