package experiment

import (
	"encoding/json"
	"fmt"

	"repro/internal/durable"
)

// BenchResult is one experiment's machine-readable measurement. cmd/elsbench
// collects one per experiment run and emits them as BENCH_results.json so CI
// can archive timings without scraping the human-formatted tables.
type BenchResult struct {
	// Experiment is the -experiment selector name ("section8", "zipf", ...).
	Experiment string `json:"experiment"`
	// WallMillis is the experiment's wall-clock time in milliseconds.
	WallMillis float64 `json:"wall_ms"`
	// TuplesScanned sums the executor work counters across the experiment's
	// queries; 0 for estimates-only runs and estimator-only sweeps.
	TuplesScanned int64 `json:"tuples_scanned"`
}

// BenchReport is the top-level BENCH_results.json document.
type BenchReport struct {
	// Scale and Seed echo the flags so a result file is self-describing.
	Scale int   `json:"scale"`
	Seed  int64 `json:"seed"`
	// GoMaxProcs records the machine parallelism available to the run: the
	// replication measurement's followers read concurrently.
	GoMaxProcs int           `json:"gomaxprocs"`
	Results    []BenchResult `json:"results"`
	// RecoveryMillis is the wall-clock time of the durable crash-recovery
	// measurement (els.Open replaying checkpoint + WAL), when the run
	// included one; 0 otherwise.
	RecoveryMillis float64 `json:"recovery_ms"`
	// RecoveryReplayedRecords and RecoveryWALBytes describe what that
	// recovery actually replayed: WAL records applied on top of the
	// checkpoint, and the WAL bytes read to do it.
	RecoveryReplayedRecords int   `json:"recovery_replayed_records"`
	RecoveryWALBytes        int64 `json:"recovery_wal_bytes"`
	// Replicas is the follower count of the replication measurement
	// (-replicas with -data-dir); 0 when the run had none.
	Replicas int `json:"replicas"`
	// ReplicaCatchupMillis is the wall-clock time for that many cold
	// followers to attach and catch up to the primary's catalog version.
	ReplicaCatchupMillis float64 `json:"replica_catchup_ms"`
	// ReplicaReadsPerSec is the aggregate estimate throughput of the
	// caught-up follower fleet.
	ReplicaReadsPerSec float64 `json:"replica_reads_per_sec"`
	// CacheHitRate is the plan-cache hit rate of the repeated-query
	// workload (the "repeated" experiment): hits / (hits + misses) over a
	// Zipf-skewed re-issue schedule. 0 when the run did not include it.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// SumTuplesScanned totals the executor work across a Section 8 table's rows.
func SumTuplesScanned(res *Section8Result) int64 {
	var total int64
	for _, row := range res.Rows {
		total += row.Stats.TuplesScanned
	}
	return total
}

// WriteBenchJSON writes the report as indented JSON to path,
// crash-atomically: CI never archives a torn result file.
func WriteBenchJSON(path string, rep *BenchReport) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("experiment: marshal bench report: %w", err)
	}
	if err := durable.AtomicWriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("experiment: write bench report: %w", err)
	}
	return nil
}
