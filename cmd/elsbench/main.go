// Command elsbench runs the paper's experiments end-to-end and prints the
// reproduced tables.
//
// Usage:
//
//	elsbench [-experiment all|section8|examples|chain|zipf|urn|random|repeated]
//	         [-scale N] [-seed N] [-estimates-only]
//	         [-json BENCH_results.json]
//
// The default runs everything. -scale divides the Section 8 table sizes
// (scale 1 is the paper's full size; 10 is a fast smoke test). -json
// additionally writes a machine-readable report with per-experiment wall time
// and tuples scanned, plus cache_hit_rate (the plan cache's hit rate on the
// "repeated" Zipf-skewed statement workload).
//
// -data-dir additionally benchmarks the durable catalog layer: the Section
// 8 statistics catalog (at the run's -scale) is declared through the WAL,
// checkpointed halfway, and then recovered with a fresh els.Open whose
// wall-clock time, replayed record count, and WAL byte volume land in the
// -json report as recovery_ms, recovery_replayed_records, and
// recovery_wal_bytes.
//
// -replicas N (with -data-dir) additionally benchmarks the replication
// layer: N cold read replicas attach to the recovered catalog, and the
// report records how long the fleet takes to catch up to the primary's
// version (replica_catchup_ms) and its aggregate estimate throughput once
// caught up (replica_reads_per_sec).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	els "repro"
	"repro/internal/experiment"
	"repro/internal/querygen"
	"repro/internal/workpool"
)

func main() {
	var (
		which     = flag.String("experiment", "all", "experiments to run (comma-separated): all, section8, examples, indexed, chain, zipf, urn, sampled, independence, random, repeated")
		scale     = flag.Int("scale", 1, "divide the Section 8 table sizes by this factor")
		seed      = flag.Int64("seed", 42, "random seed for data generation")
		estimates = flag.Bool("estimates-only", false, "skip data generation and execution (Section 8)")
		jsonPath  = flag.String("json", "", "also write a machine-readable bench report to this path")
		timeout   = flag.Duration("timeout", 0, "wall-clock budget for the whole run (0 = none)")
		dataDir   = flag.String("data-dir", "", "durable catalog directory: persist the Section 8 statistics catalog, checkpoint on exit, and measure recovery_ms")
		replicas  = flag.Int("replicas", 0, "with -data-dir: attach N WAL-shipped read replicas, measure cold catch-up time and follower read throughput")
	)
	flag.Parse()
	report := &experiment.BenchReport{Scale: *scale, Seed: *seed, GoMaxProcs: runtime.GOMAXPROCS(0)}
	err := workpool.WithTimeout(*timeout, func() error {
		return run(os.Stdout, *which, *scale, *seed, *estimates, report)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "elsbench:", err)
		os.Exit(1)
	}
	if *dataDir != "" {
		if err := measureRecovery(*dataDir, *scale, report); err != nil {
			fmt.Fprintln(os.Stderr, "elsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "durable recovery of %s: %.3f ms (%d wal records replayed, %d wal bytes)\n",
			*dataDir, report.RecoveryMillis, report.RecoveryReplayedRecords, report.RecoveryWALBytes)
	}
	if *replicas > 0 {
		if *dataDir == "" {
			fmt.Fprintln(os.Stderr, "elsbench: -replicas requires -data-dir")
			os.Exit(1)
		}
		if err := measureReplication(*dataDir, *replicas, report); err != nil {
			fmt.Fprintln(os.Stderr, "elsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "replication: %d cold replicas caught up in %.3f ms; %.0f follower reads/s\n",
			report.Replicas, report.ReplicaCatchupMillis, report.ReplicaReadsPerSec)
	}
	if *jsonPath != "" {
		if err := experiment.WriteBenchJSON(*jsonPath, report); err != nil {
			fmt.Fprintln(os.Stderr, "elsbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "bench report written to %s\n", *jsonPath)
	}
}

func run(w io.Writer, which string, scale int, seed int64, estimatesOnly bool, report *experiment.BenchReport) error {
	// Each step prints its human table and returns the executor tuples it
	// scanned (0 for estimator-only sweeps), which the bench report records
	// alongside the measured wall time.
	steps := []struct {
		name string
		fn   func() (tuples int64, err error)
	}{
		{"examples", func() (int64, error) {
			examples, err := experiment.RunWorkedExamples()
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiment.FormatWorkedExamples(examples))
			fmt.Fprintln(w)
			return 0, nil
		}},
		{"section8", func() (int64, error) {
			res, err := experiment.RunSection8(experiment.Section8Options{
				Scale: scale, Seed: seed, SkipExecution: estimatesOnly,
			})
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiment.FormatSection8(res))
			fmt.Fprintln(w)
			for _, row := range res.Rows {
				fmt.Fprintf(w, "--- %s / %s plan:\n%s\n", row.Query, row.Algorithm, row.Plan)
			}
			return experiment.SumTuplesScanned(res), nil
		}},
		{"indexed", func() (int64, error) {
			if estimatesOnly {
				fmt.Fprintln(w, "(indexed experiment skipped: requires execution)")
				return 0, nil
			}
			res, err := experiment.RunSection8(experiment.Section8Options{
				Scale: scale, Seed: seed, WithIndexes: true,
			})
			if err != nil {
				return 0, err
			}
			fmt.Fprintln(w, "A6: Section 8 with ordered indexes on all join columns (index NL enabled)")
			fmt.Fprint(w, experiment.FormatSection8(res))
			fmt.Fprintln(w)
			return experiment.SumTuplesScanned(res), nil
		}},
		{"chain", func() (int64, error) {
			rows, err := experiment.RunChainLengthSweep(8, 30, seed)
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiment.FormatChainLengthSweep(rows))
			fmt.Fprintln(w)
			return 0, nil
		}},
		{"zipf", func() (int64, error) {
			rows, err := experiment.RunZipfSweep(2000, 5000, 500, []float64{0, 0.25, 0.5, 0.75, 1.0}, seed)
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiment.FormatZipfSweep(rows))
			fmt.Fprintln(w)
			return 0, nil
		}},
		{"urn", func() (int64, error) {
			rows, err := experiment.RunUrnVsLinear(100000, 10000,
				[]float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0}, seed)
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiment.FormatUrnVsLinear(rows))
			fmt.Fprintln(w)
			return 0, nil
		}},
		{"sampled", func() (int64, error) {
			rows, err := experiment.RunSampledStats(20000, []int{500, 2000, 10000}, seed)
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiment.FormatSampledStats(rows))
			fmt.Fprintln(w)
			return 0, nil
		}},
		{"independence", func() (int64, error) {
			rows, err := experiment.RunIndependenceSweep(100000, 200, 0.2, seed)
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiment.FormatIndependenceSweep(rows))
			fmt.Fprintln(w)
			return 0, nil
		}},
		{"random", func() (int64, error) {
			rows, err := experiment.RunRandomQueries(30, seed)
			if err != nil {
				return 0, err
			}
			fmt.Fprint(w, experiment.FormatRandomQueries(rows))
			fmt.Fprintln(w)
			return 0, nil
		}},
		{"repeated", func() (int64, error) {
			return 0, runRepeated(w, seed, report)
		}},
	}
	// -experiment accepts a comma-separated list ("section8,repeated"), so
	// one invocation can land several measurements in a single report.
	all := false
	want := make(map[string]bool)
	for _, name := range strings.Split(which, ",") {
		if name = strings.TrimSpace(name); name == "all" {
			all = true
		} else if name != "" {
			want[name] = true
		}
	}
	if !all && len(want) == 0 {
		return fmt.Errorf("unknown experiment %q", which)
	}
	for _, step := range steps {
		if !all && !want[step.name] {
			continue
		}
		delete(want, step.name)
		start := time.Now()
		tuples, err := step.fn()
		if err != nil {
			return err
		}
		report.Results = append(report.Results, experiment.BenchResult{
			Experiment:    step.name,
			WallMillis:    float64(time.Since(start).Microseconds()) / 1000,
			TuplesScanned: tuples,
		})
	}
	for name := range want {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

// runRepeated drives the plan cache with the shape of a dashboard or
// reporting workload: a fixed pool of generated statements re-issued on a
// Zipf-skewed schedule through the full serving stack (parse, bind, plan
// cache, estimate). The resulting hit rate lands in the report as
// cache_hit_rate; with a pool much smaller than the issue count it should
// clear 0.9 comfortably.
func runRepeated(w io.Writer, seed int64, report *experiment.BenchReport) error {
	const (
		poolSize = 25
		issues   = 500
		skew     = 1.5
	)
	sys := els.New()
	pool := make([]string, poolSize)
	for i := range pool {
		q := querygen.GenerateNamed(seed+int64(i), fmt.Sprintf("W%dT", i))
		for _, spec := range q.Specs {
			distinct := make(map[string]float64, len(spec.Columns))
			for _, col := range spec.Columns {
				d := float64(col.Domain)
				if rows := float64(spec.Rows); d > rows {
					d = rows
				}
				distinct[col.Name] = d
			}
			if err := sys.DeclareStats(spec.Name, float64(spec.Rows), distinct); err != nil {
				return err
			}
		}
		pool[i] = q.SQL()
	}
	for _, idx := range querygen.RepeatSchedule(seed, poolSize, issues, skew) {
		if _, err := sys.Estimate(pool[idx], els.AlgorithmELS); err != nil {
			return fmt.Errorf("repeated workload %q: %w", pool[idx], err)
		}
	}
	st := sys.CacheStats()
	report.CacheHitRate = st.HitRate()
	fmt.Fprintf(w, "repeated workload: %d issues over %d distinct statements (zipf %g): %d hits, %d misses — hit rate %.3f\n\n",
		issues, poolSize, skew, st.Hits, st.Misses, report.CacheHitRate)
	return nil
}

// measureRecovery exercises the durable catalog end to end: declare the
// Section 8 statistics catalog (at the run's scale) through the WAL,
// compact it into an atomic checkpoint, close, and time a cold els.Open —
// checkpoint load plus WAL replay — as the report's recovery_ms.
func measureRecovery(dir string, scale int, report *experiment.BenchReport) error {
	if scale < 1 {
		scale = 1
	}
	sys, err := els.Open(dir)
	if err != nil {
		return err
	}
	section8 := []struct {
		name string
		card float64
		col  string
	}{
		{"S", 1000, "s"}, {"M", 10000, "m"}, {"B", 50000, "b"}, {"G", 100000, "g"},
	}
	for i, t := range section8 {
		card := t.card / float64(scale)
		if err := sys.DeclareStats(t.name, card, map[string]float64{t.col: card}); err != nil {
			return err
		}
		// Checkpoint halfway so the recovery measurement exercises both
		// paths: checkpoint load AND a WAL-suffix replay.
		if i == len(section8)/2-1 {
			if err := sys.Checkpoint(); err != nil {
				return err
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := sys.Close(ctx); err != nil {
		return err
	}
	start := time.Now()
	recovered, err := els.Open(dir)
	if err != nil {
		return err
	}
	report.RecoveryMillis = float64(time.Since(start).Microseconds()) / 1000
	d := recovered.DurabilityStats()
	report.RecoveryReplayedRecords = d.ReplayedRecords
	report.RecoveryWALBytes = d.WALBytes
	return recovered.Close(ctx)
}

// measureReplication reopens the durable catalog the recovery measurement
// left behind as a replication primary, cold-attaches n read replicas
// (each with its own durable directory under dir), and measures how long
// the fleet takes to catch up to the primary's catalog version, then the
// fleet's aggregate read throughput at lag 0.
func measureReplication(dir string, n int, report *experiment.BenchReport) error {
	sys, err := els.Open(dir)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	defer sys.Close(ctx)

	// Widen the shipped history so catch-up replays real deltas, not just
	// one full frame.
	for i := 0; i < 32; i++ {
		card := float64(1000 + i)
		if err := sys.DeclareStats(fmt.Sprintf("RT%d", i), card, map[string]float64{"k": card}); err != nil {
			return err
		}
	}

	start := time.Now()
	reps := make([]*els.Replica, n)
	for i := range reps {
		rep, err := els.OpenReplica(filepath.Join(dir, fmt.Sprintf("replica%d", i)))
		if err != nil {
			return err
		}
		defer rep.Close(ctx)
		if err := sys.AttachReplica(rep); err != nil {
			return err
		}
		reps[i] = rep
	}
	if err := sys.WaitForReplicas(ctx); err != nil {
		return err
	}
	report.Replicas = n
	report.ReplicaCatchupMillis = float64(time.Since(start).Microseconds()) / 1000

	// Aggregate follower read throughput: every caught-up replica serves a
	// fixed batch of estimates concurrently.
	const readsPerReplica = 2000
	const probe = "SELECT COUNT(*) FROM S, M WHERE s = m"
	start = time.Now()
	done := make([]<-chan error, n)
	for i, rep := range reps {
		rep := rep
		done[i] = workpool.Async(func() error {
			for j := 0; j < readsPerReplica; j++ {
				if _, err := rep.Estimate(probe, els.AlgorithmELS); err != nil {
					return err
				}
			}
			return nil
		})
	}
	for _, ch := range done {
		if err := <-ch; err != nil {
			return err
		}
	}
	report.ReplicaReadsPerSec = float64(readsPerReplica*n) / time.Since(start).Seconds()
	return nil
}
