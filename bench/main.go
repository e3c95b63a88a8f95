// Command bench is the repository's benchmark: five named workloads, six
// end-to-end metrics, and per-layer timings taken from outside by calling
// each layer's public functions. See README.md in this directory.
//
//	go run ./bench                       every workload, 5 measured repeats each
//	go run ./bench -trace 1              … followed by the traced pass
//	go run ./bench -workload plan_hot -seed 7 -seconds 10 -trace 0
//	go run ./bench -compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/durable"
)

// runMeta records the conditions of a run.
type runMeta struct {
	Seed       int64  `json:"seed"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Smoke      bool   `json:"smoke,omitempty"`
	Traced     bool   `json:"traced"`
}

// results is the file -out writes and -compare reads.
type results struct {
	Meta      runMeta           `json:"meta"`
	Workloads []*workloadReport `json:"workloads"`
}

// contractLine is the single JSON object a time-boxed single-workload run
// prints last, for the acceptance driver.
type contractLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "generator seed: same seed, same inputs")
	which := fs.String("workload", "all", "workload to run: all, or one of "+workloadNames())
	runs := fs.Int("runs", 5, "measured repeats per workload (ignored with -seconds)")
	seconds := fs.Float64("seconds", 0, "measure one workload for this many seconds and print the result line the acceptance driver reads")
	trace := fs.Int("trace", 0, "1: add the traced pass and report the per-layer metrics")
	smoke := fs.Bool("smoke", false, "run every workload at about 1/50 of its operation count (checks the harness, not the system)")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for results.json, trace-<workload>.jsonl and scratch files")
	compare := fs.Bool("compare", false, "compare two results files: bench -compare old.json new.json")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition -compare takes the bounds from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare old.json new.json")
			return 2
		}
		return compareFiles(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	var selected []workloadSpec
	for _, w := range workloads {
		if *which == "all" || *which == w.Name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *which, workloadNames())
		return 2
	}
	if *seconds > 0 && len(selected) != 1 {
		fmt.Fprintln(stderr, "bench: -seconds measures one workload; name it with -workload")
		return 2
	}

	// The box assumption: one generator process with at most four threads.
	procs := runtime.NumCPU()
	if procs > 4 {
		procs = 4
	}
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, runs: *runs, seconds: *seconds, trace: *trace != 0, sz: fullSizes, outDir: *out, procs: procs}
	if *smoke {
		cfg.sz = smokeSizes
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	res := results{Meta: runMeta{
		Seed: *seed, NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		Commit: commit(), Smoke: *smoke, Traced: cfg.trace,
	}}
	fmt.Fprintf(stdout, "bench: seed %d, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		*seed, res.Meta.NumCPU, procs, res.Meta.GoVersion, res.Meta.Commit)
	failed := 0
	ctx := context.Background() //ctxflow:allow root context of the benchmark command
	for _, w := range selected {
		rep, err := runWorkload(ctx, w, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		res.Workloads = append(res.Workloads, rep)
		printReport(stdout, rep)
		failed += rep.Failed
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "results.json"), res); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *seconds > 0 {
		// Last line of standard output: the result object.
		rep := res.Workloads[0]
		line := contractLine{Correct: rep.Failed == 0, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metric{}}
		from := rep.EndToEnd
		if cfg.trace {
			from = rep.PerLayer
		}
		for name, s := range from {
			line.Metrics[name] = metric{Value: s.Value, Unit: s.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(b))
	}
	if failed > 0 {
		fmt.Fprintf(stderr, "bench: %d operations failed or did not verify\n", failed)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, ", ")
}

// commit is the VCS revision the binary was built from, when the build
// recorded one.
func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// printReport prints every metric of one workload by name, with its unit.
func printReport(w io.Writer, rep *workloadReport) {
	fmt.Fprintf(w, "\n== %s: %d repeats, %d samples, %d attempted, %d failed\n",
		rep.Name, rep.Repeats, rep.Samples, rep.Attempted, rep.Failed)
	for _, f := range rep.Failures {
		fmt.Fprintf(w, "   FAILED: %s\n", f)
	}
	for _, m := range endToEnd {
		s := rep.EndToEnd[m.Name]
		fmt.Fprintf(w, "   %-32s %14.6g %-6s (quartiles %.6g .. %.6g over %d)\n", m.Name, s.Value, s.Unit, s.Q1, s.Q3, s.N)
	}
	if rep.PerLayer == nil {
		return
	}
	names := make([]string, 0, len(rep.PerLayer))
	for name := range rep.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := rep.PerLayer[name]
		fmt.Fprintf(w, "   %-32s %14.6g %s\n", name, s.Value, s.Unit)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return durable.AtomicWriteFile(path, append(b, '\n'), 0o644)
}
