// Package durable is the crash-safe storage layer underneath the snapshot
// store: a checksummed write-ahead log plus atomic checkpoints, so every
// catalog version the system acknowledged is recoverable after a process
// crash.
//
// # Protocol
//
// Every catalog mutation, before its new snapshot version is published,
// appends one WAL record holding the version number and the stats-JSON
// delta of the tables the mutation changed, then fsyncs. Publication — and
// therefore the caller's acknowledgement — happens only after the fsync
// returns, so "the mutation returned nil" implies "the mutation is on
// disk". Periodically (Options.CheckpointEvery records, or an explicit
// Checkpoint call) the log is compacted: the full catalog is written to a
// temp file in the stats JSON v2 format (per-section CRCs included),
// fsynced, renamed over checkpoint.json, the directory fsynced, and only
// then is the WAL truncated.
//
// # Recovery
//
// Open replays checkpoint + WAL suffix: the checkpoint (if any) restores
// the catalog at its stamped version, then each WAL record with the next
// consecutive version is applied in order. Records at or below the
// checkpoint version are skipped — the signature of a crash between the
// checkpoint rename and the WAL truncate. A record that ends or breaks
// before its checksum verifies is a torn tail (the writer died
// mid-record): recovery truncates the log at the record's start and
// reports the state as of the previous record, which is exactly the last
// acknowledged version. A framing failure is always interpreted as the
// torn tail of the final record; mid-file tampering is outside the crash
// model and is what the per-record and per-section checksums exist to
// detect.
//
// # Failure semantics
//
// Any durability error (injected crash, fsync failure, checkpoint failure)
// poisons the store: the failed mutation is not acknowledged, nothing is
// published, and every further mutation fails with ErrDurability until the
// directory is reopened through Open's recovery path. This is deliberately
// conservative — after a failed write the on-disk suffix is unknown, and
// recovery, not optimism, is the way back to a provably consistent state.
// Reads (queries against published in-memory snapshots) are unaffected.
package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/governor"
)

// Probe points for fault-injected crash testing (internal/faultinject).
// Arm them with a Fault carrying a DiskFault payload (short write + crash)
// or a plain Err. Each models one instant a real process can die at.
//
// A store opened with OpenScoped fires scope-prefixed points
// (scope + PointWALAppend, ...) so replication tests can crash one
// follower's disk without touching the primary or its siblings; the
// primary (Open, empty scope) keeps the bare names.
const (
	// PointWALAppend fires inside the WAL record write: a DiskFault short
	// write leaves a torn record on disk.
	PointWALAppend = "durable.wal.append"
	// PointWALSync fires before the WAL fsync: the record is fully written
	// but not yet durable.
	PointWALSync = "durable.wal.sync"
	// PointCheckpointWrite fires inside the checkpoint temp-file write.
	PointCheckpointWrite = "durable.checkpoint.write"
	// PointCheckpointRename fires after the temp file is durable but before
	// it is renamed over checkpoint.json.
	PointCheckpointRename = "durable.checkpoint.rename"
	// PointWALTruncate fires after the checkpoint rename but before the WAL
	// is truncated — recovery must skip the stale records.
	PointWALTruncate = "durable.wal.truncate"
)

const (
	walName        = "wal.log"
	checkpointName = "checkpoint.json"
)

// Options tune WAL compaction; see governor.Limits.
type Options struct {
	// CheckpointEvery compacts the WAL after this many records; 0 leaves
	// compaction to explicit Checkpoint calls.
	CheckpointEvery int
}

// FrameSink receives every WAL record the moment it has been made durable
// — the hook the replication shipper (internal/replica) installs to stream
// acknowledged mutations to followers. ShipFrame is called under the
// store's lock after the record's fsync succeeded and immediately before
// the mutation is acknowledged, so a sink sees exactly the acknowledged
// history in version order; it must not block (hand off and return) and
// must treat next as immutable — it is the catalog about to be published
// as version.
type FrameSink interface {
	ShipFrame(version uint64, delta []byte, next *catalog.Catalog)
}

// Store is the durable log for one catalog directory. Its methods are
// called under the snapshot store's writer lock (LogMutation, Checkpoint)
// or are internally locked; a Store serializes itself regardless.
type Store struct {
	dir   string
	scope string // probe-point prefix; "" for a primary

	//lockorder:level 40
	mu        sync.Mutex
	wal       *os.File
	walSize   int64
	walBytes  int64  // cumulative bytes appended since Open (checkpoints don't reset it)
	ckptVer   uint64 // version held by checkpoint.json (1 = implicit empty catalog)
	lastVer   uint64 // last version appended (== published version once acknowledged)
	records   int    // WAL records since the last checkpoint
	opts      Options
	sink      FrameSink // ships acknowledged records to followers; may be nil
	poisoned  error     // first durability failure; sticky until reopen
	closed    bool
	recovered recovered // what Open found, for Stats and the owner
}

// pt scopes a probe-point name to this store.
func (s *Store) pt(point string) string { return s.scope + point }

// recovered captures the outcome of Open's replay.
type recovered struct {
	cat      *catalog.Catalog
	version  uint64
	tornTail bool
	replayed int // WAL records applied on top of the checkpoint
}

// Open recovers (or initializes) the durable catalog directory and returns
// a Store positioned to append. The recovered catalog and version are
// available from Catalog/Version until the owner takes them over.
func Open(dir string) (*Store, error) { return OpenScoped(dir, "") }

// OpenScoped is Open with a probe-point scope: every faultinject point the
// store consults is prefixed with scope, so tests can fault one store
// (one replica's disk) in a process running several. The empty scope — a
// primary — fires the bare canonical names.
func OpenScoped(dir, scope string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("%w: creating data dir %s: %w", governor.ErrDurability, dir, err)
	}
	// A crash can strand temp artifacts (checkpoint or atomic stats
	// export); they are by definition unpublished, so recovery removes
	// them.
	if tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp")); err == nil {
		for _, t := range tmps {
			os.Remove(t)
		}
	}

	cat := catalog.New()
	version := uint64(1) // the empty catalog every snapshot store starts at
	ckptPath := filepath.Join(dir, checkpointName)
	if data, err := os.ReadFile(ckptPath); err == nil {
		v, ierr := cat.ImportVersionedJSON(bytes.NewReader(data))
		if ierr != nil {
			return nil, fmt.Errorf("%w: checkpoint %s: %w", governor.ErrDurability, ckptPath, ierr)
		}
		if v == 0 {
			return nil, fmt.Errorf("%w: checkpoint %s carries no catalog_version header", governor.ErrDurability, ckptPath)
		}
		version = v
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: reading checkpoint %s: %w", governor.ErrDurability, ckptPath, err)
	}
	ckptVer := version

	walPath := filepath.Join(dir, walName)
	wal, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644) //atomicwrite:allow the WAL is the append-only primitive; records carry their own checksums
	if err != nil {
		return nil, fmt.Errorf("%w: opening wal %s: %w", governor.ErrDurability, walPath, err)
	}
	st := &Store{dir: dir, scope: scope, wal: wal, ckptVer: ckptVer}
	version, tornTail, replayed, err := st.replay(cat, version)
	if err != nil {
		wal.Close()
		return nil, err
	}
	st.lastVer = version
	st.records = replayed
	st.walBytes = st.walSize
	st.recovered = recovered{cat: cat, version: version, tornTail: tornTail, replayed: replayed}
	return st, nil
}

// replay applies the WAL suffix to cat (already holding the checkpoint
// state at version) and truncates a torn tail. It leaves the WAL handle
// positioned at the end of the last good record.
func (s *Store) replay(cat *catalog.Catalog, version uint64) (newVersion uint64, tornTail bool, replayed int, err error) {
	r := &countingReader{r: s.wal}
	var good int64 // offset just past the last good record
	for {
		recVersion, delta, rerr := readRecord(r)
		if rerr == io.EOF {
			break
		}
		if errors.Is(rerr, errTorn) {
			tornTail = true
			break
		}
		if rerr != nil {
			return 0, false, 0, fmt.Errorf("%w: reading wal: %w", governor.ErrDurability, rerr)
		}
		switch {
		case recVersion <= version:
			// Stale record from before the checkpoint — the writer died
			// between the checkpoint rename and the WAL truncate.
		case recVersion == version+1:
			if _, ierr := cat.ImportVersionedJSON(bytes.NewReader(delta)); ierr != nil {
				return 0, false, 0, fmt.Errorf("%w: wal record for version %d: %w",
					governor.ErrDurability, recVersion, ierr)
			}
			version = recVersion
			replayed++
		default:
			// A version gap cannot come from this writer (appends are
			// sequential and fsynced in order); treat it like a torn tail
			// so the prefix — every acknowledged record — survives.
			tornTail = true
		}
		if tornTail {
			break
		}
		good = r.n
	}
	if r.n != good {
		if err := s.wal.Truncate(good); err != nil {
			return 0, false, 0, fmt.Errorf("%w: truncating torn wal tail: %w", governor.ErrDurability, err)
		}
		if err := s.wal.Sync(); err != nil {
			return 0, false, 0, fmt.Errorf("%w: syncing truncated wal: %w", governor.ErrDurability, err)
		}
	}
	if _, err := s.wal.Seek(good, io.SeekStart); err != nil {
		return 0, false, 0, fmt.Errorf("%w: seeking wal: %w", governor.ErrDurability, err)
	}
	s.walSize = good
	return version, tornTail, replayed, nil
}

// countingReader tracks how many bytes have been consumed, so replay knows
// the offset of the last good record boundary.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// Catalog returns the recovered catalog. The caller takes ownership (the
// snapshot store publishes it as its first version).
func (s *Store) Catalog() *catalog.Catalog { return s.recovered.cat }

// Version returns the recovered catalog version.
func (s *Store) Version() uint64 { return s.recovered.version }

// SetOptions installs the durability knobs (see governor.Limits).
func (s *Store) SetOptions(o Options) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.opts = o
}

// SetSink installs (or with nil removes) the frame sink that streams
// acknowledged WAL records to replication followers.
func (s *Store) SetSink(k FrameSink) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink = k
}

// Stats is a point-in-time snapshot of the store's durability state.
type Stats struct {
	// Dir is the data directory.
	Dir string
	// WALSizeBytes is the current size of the write-ahead log.
	WALSizeBytes int64
	// CheckpointVersion is the catalog version held by checkpoint.json
	// (1 when no checkpoint has been written — the implicit empty catalog).
	CheckpointVersion uint64
	// RecordsSinceCheckpoint counts WAL records appended (or replayed)
	// since the last checkpoint.
	RecordsSinceCheckpoint int
	// LastVersion is the last version made durable.
	LastVersion uint64
	// ReplayedRecords counts the WAL records the last Open applied on top
	// of the checkpoint — how much of recovery was replay rather than
	// checkpoint load.
	ReplayedRecords int
	// WALBytes is the cumulative volume appended to the WAL since Open
	// (recovered suffix included). Unlike WALSizeBytes it is not reset by
	// checkpoint truncation, so it tracks total write/ship volume.
	WALBytes int64
	// TornTailRecovered reports whether the last Open truncated a torn
	// trailing record.
	TornTailRecovered bool
	// Poisoned is non-nil once a durability failure has frozen the store.
	Poisoned error
}

// Stats returns the store's current durability counters; the zero Stats
// (empty Dir) for a nil store.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Dir:                    s.dir,
		WALSizeBytes:           s.walSize,
		CheckpointVersion:      s.ckptVer,
		RecordsSinceCheckpoint: s.records,
		LastVersion:            s.lastVer,
		ReplayedRecords:        s.recovered.replayed,
		WALBytes:               s.walBytes,
		TornTailRecovered:      s.recovered.tornTail,
		Poisoned:               s.poisoned,
	}
}

// poison records the first durability failure and freezes the store.
func (s *Store) poison(err error) error {
	if s.poisoned == nil {
		s.poisoned = err
	}
	return err
}

// checkUsable reports the sticky failure state.
func (s *Store) checkUsable() error {
	if s.poisoned != nil {
		return fmt.Errorf("%w: durable store is frozen after an earlier failure (reopen to recover): %w",
			governor.ErrDurability, s.poisoned)
	}
	if s.closed {
		return fmt.Errorf("%w: durable store is closed", governor.ErrDurability)
	}
	return nil
}

// LogMutation makes the transition prev -> next (to be published as
// version) durable: it appends the tables the mutation wrote
// (next.Touched, in registration order; none for a mutation that wrote
// nothing) as one checksummed WAL record and fsyncs before returning.
// next is prev's Clone plus those writes, so prev itself is not read. The
// snapshot store publishes the version only after LogMutation returns nil
// — publish acknowledges durability. Implements snapshot.Durability.
func (s *Store) LogMutation(version uint64, prev, next *catalog.Catalog) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkUsable(); err != nil {
		return err
	}
	var delta bytes.Buffer
	if err := next.ExportSubsetJSON(&delta, next.Touched()); err != nil {
		return s.poison(fmt.Errorf("%w: encoding wal delta for version %d: %w", governor.ErrDurability, version, err))
	}
	frame := encodeRecord(version, delta.Bytes())

	if f, ok := faultinject.Fire(s.pt(PointWALAppend)); ok {
		if df, isDisk := f.Payload.(faultinject.DiskFault); isDisk {
			if df.ShortWrite >= 0 && df.ShortWrite < len(frame) {
				frame = frame[:df.ShortWrite]
			}
			if n, werr := s.wal.Write(frame); werr == nil {
				s.walSize += int64(n)
				s.walBytes += int64(n)
			}
			return s.poison(fmt.Errorf("%w: wal append for version %d: %w",
				governor.ErrDurability, version, faultinject.ErrCrash))
		}
		if f.Err != nil {
			return s.poison(fmt.Errorf("%w: wal append for version %d: %w", governor.ErrDurability, version, f.Err))
		}
	}
	n, err := s.wal.Write(frame)
	s.walSize += int64(n)
	s.walBytes += int64(n)
	if err != nil {
		return s.poison(fmt.Errorf("%w: wal append for version %d: %w", governor.ErrDurability, version, err))
	}

	if f, ok := faultinject.Fire(s.pt(PointWALSync)); ok {
		err := f.Err
		if err == nil {
			err = faultinject.ErrCrash
		}
		return s.poison(fmt.Errorf("%w: wal sync for version %d: %w", governor.ErrDurability, version, err))
	}
	if err := s.wal.Sync(); err != nil {
		return s.poison(fmt.Errorf("%w: wal sync for version %d: %w", governor.ErrDurability, version, err))
	}
	s.lastVer = version
	s.records++
	if s.sink != nil {
		// The record is durable; stream it to followers before the caller
		// is acknowledged so shipping observes exactly the acknowledged
		// history in version order. The sink hands off without blocking.
		s.sink.ShipFrame(version, delta.Bytes(), next)
	}
	if s.opts.CheckpointEvery > 0 && s.records >= s.opts.CheckpointEvery {
		// The record is durable and the version will be acknowledged
		// regardless of how compaction fares; a compaction failure still
		// poisons (the store's relationship to disk is no longer certain),
		// but it must not fail the mutation that triggered it.
		if err := s.checkpointLocked(next, version); err != nil {
			s.poison(err)
		}
	}
	return nil
}

// ResetTo abandons the store's current history and makes cat at version
// its new durable state: an atomic checkpoint of cat is published and the
// WAL truncated, after which appends continue from version. This is the
// follower full-resync path — a replica that lost frames (or diverged and
// was quarantined) is handed the primary's complete catalog and must
// persist it at the primary's version, exactly as if it had replayed every
// frame it missed.
func (s *Store) ResetTo(cat *catalog.Catalog, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkUsable(); err != nil {
		return err
	}
	if err := s.checkpointLocked(cat, version); err != nil {
		return s.poison(err)
	}
	s.lastVer = version
	return nil
}

// Checkpoint compacts the WAL into an atomic checkpoint of cat at version.
// Safe to call concurrently with queries; the caller must ensure cat is
// the published catalog for version (els.System holds the snapshot store's
// writer lock).
func (s *Store) Checkpoint(cat *catalog.Catalog, version uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkUsable(); err != nil {
		return err
	}
	if err := s.checkpointLocked(cat, version); err != nil {
		return s.poison(err)
	}
	return nil
}

// checkpointLocked writes cat at version as the new checkpoint: temp file
// + fsync + rename + dir fsync, then truncates the WAL. Caller holds mu.
func (s *Store) checkpointLocked(cat *catalog.Catalog, version uint64) (err error) {
	var buf bytes.Buffer
	if err := cat.ExportVersionedJSON(&buf, version); err != nil {
		return fmt.Errorf("%w: encoding checkpoint at version %d: %w", governor.ErrDurability, version, err)
	}
	path := filepath.Join(s.dir, checkpointName)
	tmp := path + ".tmp"
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()

	data := buf.Bytes()
	if f, ok := faultinject.Fire(s.pt(PointCheckpointWrite)); ok {
		if df, isDisk := f.Payload.(faultinject.DiskFault); isDisk {
			short := data
			if df.ShortWrite >= 0 && df.ShortWrite < len(data) {
				short = data[:df.ShortWrite]
			}
			os.WriteFile(tmp, short, 0o644) //atomicwrite:allow deliberately torn temp write under fault injection
			// A simulated kill leaves the torn temp file in place for
			// recovery to clean up; skip the deferred remove.
			err = nil
			return fmt.Errorf("%w: checkpoint write at version %d: %w",
				governor.ErrDurability, version, faultinject.ErrCrash)
		}
		if f.Err != nil {
			return fmt.Errorf("%w: checkpoint write at version %d: %w", governor.ErrDurability, version, f.Err)
		}
	}
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644) //atomicwrite:allow checkpoint temp file; the atomic rename protocol is implemented inline for fault-point coverage
	if err != nil {
		return fmt.Errorf("%w: creating checkpoint temp: %w", governor.ErrDurability, err)
	}
	if _, err = f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("%w: writing checkpoint temp: %w", governor.ErrDurability, err)
	}
	if err = f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("%w: syncing checkpoint temp: %w", governor.ErrDurability, err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("%w: closing checkpoint temp: %w", governor.ErrDurability, err)
	}

	if fa, ok := faultinject.Fire(s.pt(PointCheckpointRename)); ok {
		err = nil // leave the durable temp for recovery to clean up
		ferr := fa.Err
		if ferr == nil {
			ferr = faultinject.ErrCrash
		}
		return fmt.Errorf("%w: checkpoint rename at version %d: %w", governor.ErrDurability, version, ferr)
	}
	if err = os.Rename(tmp, path); err != nil {
		return fmt.Errorf("%w: publishing checkpoint: %w", governor.ErrDurability, err)
	}
	if err = syncDir(s.dir); err != nil {
		return err
	}

	if fa, ok := faultinject.Fire(s.pt(PointWALTruncate)); ok {
		ferr := fa.Err
		if ferr == nil {
			ferr = faultinject.ErrCrash
		}
		// The checkpoint is already published; recovery skips the stale
		// records the truncate would have removed.
		return fmt.Errorf("%w: wal truncate after checkpoint at version %d: %w",
			governor.ErrDurability, version, ferr)
	}
	if err = s.wal.Truncate(0); err != nil {
		return fmt.Errorf("%w: truncating wal after checkpoint: %w", governor.ErrDurability, err)
	}
	if _, err = s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("%w: seeking wal after checkpoint: %w", governor.ErrDurability, err)
	}
	if err = s.wal.Sync(); err != nil {
		return fmt.Errorf("%w: syncing wal after checkpoint: %w", governor.ErrDurability, err)
	}
	s.walSize = 0
	s.records = 0
	s.ckptVer = version
	return nil
}

// Close flushes and closes the WAL handle. A poisoned store closes the
// handle without touching disk state (the simulated-crash contract: the
// bytes on disk stay exactly as the failure left them). Close is
// idempotent; a closed store rejects further mutations with ErrDurability.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.poisoned != nil {
		s.wal.Close()
		return nil
	}
	var firstErr error
	if err := s.wal.Sync(); err != nil {
		firstErr = fmt.Errorf("%w: syncing wal at close: %w", governor.ErrDurability, err)
	}
	if err := s.wal.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("%w: closing wal: %w", governor.ErrDurability, err)
	}
	return firstErr
}
