package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	els "repro"
	"repro/internal/experiment"
)

// runFor is the test entry point: run with a throwaway report.
func runFor(w *bytes.Buffer, which string, scale int, seed int64, estimatesOnly bool) error {
	return run(w, which, scale, seed, estimatesOnly, &experiment.BenchReport{})
}

func TestRunSection8Experiment(t *testing.T) {
	var buf bytes.Buffer
	if err := runFor(&buf, "section8", 100, 42, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Section 8 experiment", "ELS", "SSS", "plan:"} {
		if !strings.Contains(out, want) {
			t.Errorf("section8 output missing %q", want)
		}
	}
}

func TestRunEstimatesOnly(t *testing.T) {
	var buf bytes.Buffer
	if err := runFor(&buf, "section8", 1, 42, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "4e-21") {
		t.Errorf("estimates-only output missing the paper value 4e-21:\n%s", out)
	}
	// Indexed experiment is skipped without execution.
	buf.Reset()
	if err := runFor(&buf, "indexed", 1, 42, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "skipped") {
		t.Errorf("indexed + estimates-only should announce the skip:\n%s", buf.String())
	}
}

func TestRunExamples(t *testing.T) {
	var buf bytes.Buffer
	if err := runFor(&buf, "examples", 1, 1, false); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "MISMATCH") {
		t.Errorf("worked examples mismatched:\n%s", buf.String())
	}
}

func TestRunSmallAblations(t *testing.T) {
	for _, which := range []string{"urn", "independence", "sampled"} {
		var buf bytes.Buffer
		if err := runFor(&buf, which, 1, 3, false); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", which)
		}
	}
}

func TestRunLargeAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping multi-second ablations in -short mode")
	}
	for _, which := range []string{"chain", "zipf", "random", "indexed"} {
		var buf bytes.Buffer
		if err := runFor(&buf, which, 10, 3, false); err != nil {
			t.Fatalf("%s: %v", which, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", which)
		}
	}
}

// The repeated-query workload must clear the acceptance bar: a Zipf-skewed
// re-issue schedule over a small statement pool is served ≥ 90% from the
// plan cache, and the rate lands in the bench report as cache_hit_rate.
func TestRunRepeatedWorkload(t *testing.T) {
	var buf bytes.Buffer
	report := &experiment.BenchReport{}
	if err := run(&buf, "repeated", 1, 42, false, report); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hit rate") {
		t.Errorf("repeated output missing the hit rate line:\n%s", buf.String())
	}
	if report.CacheHitRate < 0.9 {
		t.Errorf("cache_hit_rate = %.3f, want >= 0.9:\n%s", report.CacheHitRate, buf.String())
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := runFor(&buf, "nope", 1, 1, false); err == nil {
		t.Error("unknown experiment should error")
	}
	if err := runFor(&buf, "", 1, 1, false); err == nil {
		t.Error("empty experiment list should error")
	}
	if err := runFor(&buf, "examples,nope", 1, 1, false); err == nil {
		t.Error("unknown name in a comma-separated list should error")
	}
}

// A comma-separated -experiment list runs each named step once and records
// one bench result per step.
func TestRunExperimentList(t *testing.T) {
	var buf bytes.Buffer
	report := &experiment.BenchReport{}
	if err := run(&buf, "examples,repeated", 1, 42, false, report); err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 2 {
		t.Fatalf("results = %d, want 2: %+v", len(report.Results), report.Results)
	}
	if report.Results[0].Experiment != "examples" || report.Results[1].Experiment != "repeated" {
		t.Errorf("steps ran as %+v, want examples then repeated", report.Results)
	}
}

// The bench report must record one result per executed experiment, with the
// Section 8 work counters totalled, and the JSON writer must round-trip it
// to disk.
func TestRunBenchReport(t *testing.T) {
	var buf bytes.Buffer
	report := &experiment.BenchReport{Scale: 100, Seed: 42, GoMaxProcs: 1}
	if err := run(&buf, "section8", 100, 42, false, report); err != nil {
		t.Fatal(err)
	}
	if len(report.Results) != 1 {
		t.Fatalf("results = %d, want 1", len(report.Results))
	}
	res := report.Results[0]
	if res.Experiment != "section8" {
		t.Errorf("result = %+v, want section8", res)
	}
	if res.TuplesScanned <= 0 {
		t.Errorf("tuples scanned = %d, want > 0", res.TuplesScanned)
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := experiment.WriteBenchJSON(path, report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"experiment": "section8"`, `"tuples_scanned"`, `"gomaxprocs": 1`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("bench JSON missing %s:\n%s", want, data)
		}
	}
}

// measureRecovery must leave a recoverable catalog behind and record a
// positive recovery_ms in both the report and the emitted JSON.
func TestMeasureRecovery(t *testing.T) {
	dir := t.TempDir()
	report := &experiment.BenchReport{Scale: 10, Seed: 42}
	if err := measureRecovery(dir, 10, report); err != nil {
		t.Fatal(err)
	}
	if report.RecoveryMillis <= 0 {
		t.Errorf("recovery_ms = %g, want > 0", report.RecoveryMillis)
	}
	// The catalog it measured is a real durable directory: reopen it and
	// check the scaled Section 8 tables are present.
	sys, err := els.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sys.Close(ctx)
	}()
	card, err := sys.TableCard("G")
	if err != nil || card != 10000 {
		t.Errorf("G card = %g, %v; want 100000/10", card, err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := experiment.WriteBenchJSON(path, report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"recovery_ms"`) {
		t.Errorf("bench JSON missing recovery_ms:\n%s", data)
	}
}
