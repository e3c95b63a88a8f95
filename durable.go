package els

import (
	"bytes"
	"fmt"
	"os"

	"repro/internal/admission"
	"repro/internal/durable"
	"repro/internal/snapshot"
)

// Open creates a System backed by a durable catalog directory: every
// published catalog version is written ahead to a checksummed WAL and
// fsynced before the mutation returns, so a mutation that returned nil is
// recoverable after a crash ("publish acknowledges durability"). Opening
// an existing directory recovers it — the checkpoint is loaded, the WAL
// suffix replayed, and a torn trailing record (the writer died mid-append)
// is truncated, landing exactly on the last acknowledged version.
//
// Durability covers statistics, the input to estimation: recovered
// estimates are bit-identical to pre-crash estimates at the same catalog
// version. Data tables and indexes are in-memory artifacts and must be
// reloaded (LoadCSV, BuildIndex) before the recovered system can execute
// queries; Estimate and Explain work immediately.
//
// A durability failure (failed append, fsync, or checkpoint) rejects the
// mutation with ErrDurability, publishes nothing, and freezes the catalog
// against further writes — reads continue, and recovery is another Open.
// Every WAL record is fsynced before the mutation returns; tune how often
// the WAL is compacted with Limits.CheckpointEvery.
func Open(dir string) (*System, error) {
	d, err := durable.Open(dir)
	if err != nil {
		return nil, err
	}
	s := &System{
		store:   snapshot.NewStoreAt(d.Catalog(), d.Version()),
		adm:     admission.New(admission.Config{}),
		breaker: admission.NewBreaker(admission.BreakerConfig{}),
		dur:     d,
	}
	s.store.SetDurability(d)
	s.initCache()
	return s, nil
}

// Durable reports whether the system is backed by a durable catalog
// directory (created with Open rather than New).
func (s *System) Durable() bool { return s.dur != nil }

// Checkpoint compacts the durable store's write-ahead log into an atomic
// checkpoint of the current catalog version (temp file + fsync + rename),
// then truncates the WAL. Recovery cost is proportional to the WAL suffix,
// so long-running systems should checkpoint periodically — either
// explicitly or automatically via Limits.CheckpointEvery. On a system
// without a durable store it fails with ErrDurability.
func (s *System) Checkpoint() error {
	if s.dur == nil {
		return fmt.Errorf("%w: system has no durable store (use els.Open)", ErrDurability)
	}
	// Checkpoints are refused for the whole drain window (not merely after
	// the WAL closes): Close's final state is the drained WAL, and a
	// checkpoint racing the teardown would contend with it for the store's
	// files. The durable store itself also rejects use after Close, so
	// this check failing to observe an in-progress Close is still safe —
	// the inner call returns a typed durability error instead.
	if s.closing.Load() {
		return fmt.Errorf("%w: draining, not checkpointing", ErrClosed)
	}
	return s.store.Locked(func(snap *snapshot.Snapshot) error {
		return s.dur.Checkpoint(snap.Catalog(), snap.Version())
	})
}

// DurabilityStats is a point-in-time snapshot of the durable store's
// state: WAL size, checkpoint version, records since the last checkpoint,
// and whether a durability failure has frozen the catalog.
type DurabilityStats = durable.Stats

// DurabilityStats snapshots the durable store's counters. The zero Stats
// (empty Dir) is returned for a system without a durable store.
func (s *System) DurabilityStats() DurabilityStats {
	if s.dur == nil {
		return DurabilityStats{}
	}
	return s.dur.Stats()
}

// ExportStatsFile writes the catalog's statistics to path crash-atomically
// (temp file + fsync + rename): a reader — or a crash mid-export — sees
// either the previous file or the complete new one, never a torn prefix,
// and no *.tmp artifact survives a failure.
func (s *System) ExportStatsFile(path string) error {
	var buf bytes.Buffer
	if err := s.ExportStats(&buf); err != nil {
		return err
	}
	return durable.AtomicWriteFile(path, buf.Bytes(), 0o644)
}

// ImportStatsFile loads statistics from a file written by ExportStatsFile
// (or any ExportStats output). Like ImportStats it is all-or-nothing: a
// corrupted file fails with ErrBadStats and publishes no catalog version.
func (s *System) ImportStatsFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: opening stats file: %w", ErrBadStats, err)
	}
	defer f.Close()
	return s.ImportStats(f)
}
