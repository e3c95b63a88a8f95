package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is the part of BENCHMARK.json -compare needs.
type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
}

// Verdicts of one (metric, workload) pair.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
)

// compareRow is one line of the comparison.
type compareRow struct {
	Workload, Metric string
	Old, New         float64
	Change           float64 // share of the old median by which new is worse (negative: better)
	Spread           float64 // the wider of the two runs' quartile spreads, as a share of the median
	Bound            float64
	Verdict          string
}

// judge applies one metric's bound to one workload's old and new figure. A
// pair is unresolved when either run's own quartile spread exceeds the
// bound: the noise is then wider than the shift the bound is meant to catch.
func judge(m metricSpec, workload string, old, new sample) compareRow {
	row := compareRow{Workload: workload, Metric: m.Name, Old: old.Value, New: new.Value, Bound: m.Bound}
	if old.Value != 0 {
		row.Change = (new.Value - old.Value) / old.Value
		if m.Better == "higher" {
			row.Change = -row.Change
		}
	}
	for _, s := range []sample{old, new} {
		if s.Value != 0 {
			row.Spread = max(row.Spread, (s.Q3-s.Q1)/s.Value)
		}
	}
	switch {
	case row.Spread > m.Bound:
		row.Verdict = verdictUnresolved
	case row.Change > m.Bound:
		row.Verdict = verdictRegression
	default:
		row.Verdict = verdictOK
	}
	return row
}

// compareResults judges every (end-to-end metric, workload) pair present
// in both results.
func compareResults(spec benchmarkSpec, old, new results) []compareRow {
	byName := make(map[string]*workloadReport, len(old.Workloads))
	for _, w := range old.Workloads {
		byName[w.Name] = w
	}
	var rows []compareRow
	for _, nw := range new.Workloads {
		ow := byName[nw.Name]
		if ow == nil {
			continue
		}
		for _, m := range spec.EndToEnd {
			o, okOld := ow.EndToEnd[m.Name]
			n, okNew := nw.EndToEnd[m.Name]
			if okOld && okNew {
				rows = append(rows, judge(m, nw.Name, o, n))
			}
		}
	}
	return rows
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles is `bench -compare old.json new.json`: one row per pair,
// exit status 1 when any pair regressed (or new has failed operations).
func compareFiles(specPath, oldPath, newPath string, stdout, stderr io.Writer) int {
	var spec benchmarkSpec
	var old, new results
	for path, v := range map[string]any{specPath: &spec, oldPath: &old, newPath: &new} {
		if err := readJSON(path, v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	rows := compareResults(spec, old, new)
	if len(rows) == 0 {
		fmt.Fprintln(stderr, "bench: the two files share no (metric, workload) pair")
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-12s %-16s %14s %14s %9s %9s %9s  %s\n", "workload", "metric", "old", "new", "worse by", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-12s %-16s %14.6g %14.6g %+8.2f%% %8.2f%% %8.4g%%  %s\n",
			r.Workload, r.Metric, r.Old, r.New, 100*r.Change, 100*r.Spread, 100*r.Bound, r.Verdict)
		if r.Verdict == verdictRegression {
			status = 1
		}
	}
	for _, w := range new.Workloads {
		if w.Failed > 0 {
			fmt.Fprintf(stdout, "%-12s %d of %d operations failed\n", w.Name, w.Failed, w.Attempted)
			status = 1
		}
	}
	return status
}
