package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// Same seed: byte-identical statements and data. Different seed: different.
func TestGeneratorsAreDeterministicInTheSeed(t *testing.T) {
	gen := func(seed int64) (string, []stmt, []serveOp) {
		d := dataset{Stats: planCatalog(seed), Data: execData(seed, 20, true)}
		return d.digest(), planStatements(seed, d.Stats, 2*planBlock, planMaxTables), serveSchedule(seed, 200)
	}
	d1, s1, o1 := gen(7)
	d2, s2, o2 := gen(7)
	if d1 != d2 || !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(o1, o2) {
		t.Fatal("the same seed generated different inputs")
	}
	d3, s3, o3 := gen(8)
	if d1 == d3 || reflect.DeepEqual(s1, s3) || reflect.DeepEqual(o1, o3) {
		t.Fatal("a different seed generated the same inputs")
	}
	// What the seed must not change: the mix.
	for i := range s1 {
		if s1[i].Tables != s3[i].Tables || s1[i].Algo != s3[i].Algo {
			t.Fatalf("statement %d: seed changed table count or algorithm: %+v vs %+v", i, s1[i], s3[i])
		}
	}
}

// Result counts are a property of the statement, not of the seed.
func TestReferenceCountsDoNotDependOnTheSeed(t *testing.T) {
	const scale = 20
	var want []int64
	for seed := int64(1); seed <= 3; seed++ {
		d := dataset{Data: execData(seed, scale, true)}
		var got []int64
		for _, s := range execStatements(scale) {
			got = append(got, s.reference(&d))
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: reference counts %v, seed 1 gave %v", seed, got, want)
		}
	}
	if want[0] != 100/scale {
		t.Fatalf("Section 8 reference count %d, want %d", want[0], 100/scale)
	}
}

func TestZipfTableHasExactFrequencies(t *testing.T) {
	z := zipfTable(3, 2000, 100)
	if len(z.Rows) != 2000 {
		t.Fatalf("%d rows, want 2000", len(z.Rows))
	}
	freq := make(map[int64]int)
	for _, r := range z.Rows {
		freq[r[0]]++
	}
	if len(freq) != 100 {
		t.Fatalf("%d distinct values, want 100", len(freq))
	}
	for k := int64(1); k < 100; k++ {
		if freq[k] > freq[k-1] {
			t.Fatalf("value %d appears %d times, more than value %d (%d)", k, freq[k], k-1, freq[k-1])
		}
	}
	if freq[0] < 5*freq[9] {
		t.Fatalf("no skew: value 0 appears %d times, value 9 %d", freq[0], freq[9])
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {95, 10}, {90, 9}, {10, 1}, {100, 10}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(s)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
	q1, q2, q3 = quartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("quartiles of three = %v %v %v", q1, q2, q3)
	}
	if got := qerror(10, 1000); got != 100 {
		t.Errorf("qerror(10, 1000) = %v", got)
	}
	if got := qerror(0, 0); got != 1 {
		t.Errorf("qerror(0, 0) = %v", got)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{TraceID: 1, Span: spanEstimate, StartNS: 0, EndNS: 1000},
		{TraceID: 1, Span: spanNewQuery, Parent: spanEstimate, StartNS: 1000, EndNS: 1400},
		{TraceID: 1, Span: spanClosure, Parent: spanNewQuery, StartNS: 1400, EndNS: 1500},
		{TraceID: 1, Span: spanEqclass, Parent: spanClosure, StartNS: 1500, EndNS: 1530},
		{TraceID: 1, Span: spanBestPlan, Parent: spanEstimate, StartNS: 1530, EndNS: 2030},
	}
	self := tr.selfTimes()
	for name, want := range map[string]int64{spanNewQuery: 300, spanClosure: 70, spanEqclass: 30, spanBestPlan: 500} {
		if got := self[name][0].Nanoseconds(); got != want {
			t.Errorf("self time of %s = %d ns, want %d", name, got, want)
		}
	}
	if got := tr.glueShare(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("glue share = %v, want 0.1", got)
	}
}

func fixture(t *testing.T, name string) results {
	t.Helper()
	var r results
	if err := readJSON(filepath.Join("testdata", name), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCompareVerdicts(t *testing.T) {
	spec := benchmarkSpec{EndToEnd: endToEnd}
	old := fixture(t, "old.json")
	verdicts := func(name string) map[string]string {
		out := make(map[string]string)
		for _, r := range compareResults(spec, old, fixture(t, name)) {
			out[r.Workload+"/"+r.Metric] = r.Verdict
		}
		return out
	}
	for pair, v := range verdicts("same.json") {
		if v != verdictOK {
			t.Errorf("same.json: %s is %s, want ok", pair, v)
		}
	}
	reg := verdicts("regressed.json")
	if len(reg) != 2*len(endToEnd) {
		t.Errorf("%d pairs compared, want %d", len(reg), 2*len(endToEnd))
	}
	for pair, v := range reg {
		want := verdictOK
		if pair == "plan_hot/ops_per_s" || pair == "exec_join/qerror_p50" || pair == "exec_join/qerror_max" {
			want = verdictRegression
		}
		if v != want {
			t.Errorf("regressed.json: %s is %s, want %s", pair, v, want)
		}
	}
	if v := verdicts("noisy.json")["plan_hot/latency_p50_us"]; v != verdictUnresolved {
		t.Errorf("noisy.json: plan_hot/latency_p50_us is %s, want unresolved", v)
	}

	// The command itself: exit status and one row per pair.
	var out, errOut bytes.Buffer
	specPath := filepath.Join("..", "BENCHMARK.json")
	if code := run([]string{"-spec", specPath, "-compare", "testdata/old.json", "testdata/regressed.json"}, &out, &errOut); code != 1 {
		t.Errorf("-compare on a regression exited %d, want 1 (%s)", code, errOut.String())
	}
	if n := strings.Count(out.String(), "\n"); n != 1+2*len(endToEnd) {
		t.Errorf("-compare printed %d lines, want %d:\n%s", n, 1+2*len(endToEnd), out.String())
	}
	out.Reset()
	if code := run([]string{"-spec", specPath, "-compare", "testdata/old.json", "testdata/noisy.json"}, &out, &errOut); code != 0 {
		t.Errorf("-compare with only an unresolved pair exited %d, want 0", code)
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the code reports.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	var spec struct {
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", spec.Paths)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", spec.PerLayer, perLayer)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %q (%q), code %q (%q)", i, spec.Workloads[i].Name, spec.Workloads[i].Why, w.Name, w.Why)
		}
	}
	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// -smoke runs every workload at about 1/50 of its operation count with the
// traced pass and all verification on; nothing may fail.
func TestSmokeRunsEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	var out, errOut bytes.Buffer
	if code := run([]string{"-smoke", "-trace", "1", "-runs", "2", "-out", dir}, &out, &errOut); code != 0 {
		t.Fatalf("smoke run exited %d\nstderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	var res results
	if err := readJSON(filepath.Join(dir, "results.json"), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Workloads) != len(workloads) {
		t.Fatalf("%d workloads reported, want %d", len(res.Workloads), len(workloads))
	}
	for _, w := range res.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, w.Failed, w.Attempted, w.Failures)
		}
		for _, m := range endToEnd {
			if s, ok := w.EndToEnd[m.Name]; !ok || !(s.Value > 0) || s.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, m.Name, s)
			}
		}
		for _, m := range perLayer {
			if s, ok := w.PerLayer[m.Name]; !ok || s.Unit != m.Unit || math.IsNaN(s.Value) {
				t.Errorf("%s: per-layer metric %s = %+v", w.Name, m.Name, s)
			}
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// The mechanisms each workload exists for, visible even at smoke size.
	layer := func(workload, metric string) float64 {
		for _, w := range res.Workloads {
			if w.Name == workload {
				return w.PerLayer[metric].Value
			}
		}
		return math.NaN()
	}
	if v := layer("plan_hot", "plancache.hit_rate"); v < 0.99 {
		t.Errorf("plan_hot hit rate %v, want ≥ 0.99", v)
	}
	if v := layer("plan_cold", "plancache.hit_rate"); v != 0 {
		t.Errorf("plan_cold hit rate %v, want 0", v)
	}
	if v := layer("serve_mixed", "server.shed_count"); v != 0 {
		t.Errorf("serve_mixed shed %v requests", v)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			t.Errorf("scratch directory %s left behind", e.Name())
		}
	}
}

// The result line of a time-boxed run is what the acceptance driver parses.
func TestTimeBoxedRunPrintsTheResultObjectLast(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"--workload", "plan_hot", "--seed", "9", "--seconds", "0.05", "--trace", "0", "-smoke", "-out", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exited %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line contractLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 || len(line.Metrics) != len(endToEnd) {
		t.Fatalf("result object %+v", line)
	}
	for _, m := range endToEnd {
		if got := line.Metrics[m.Name]; got.Unit != m.Unit || !(got.Value > 0) {
			t.Errorf("%s = %+v", m.Name, got)
		}
	}
}
