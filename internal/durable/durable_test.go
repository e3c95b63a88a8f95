package durable

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/catalog"
	"repro/internal/faultinject"
	"repro/internal/governor"
)

// step applies one catalog mutation (add/replace a table) through the
// store: clone, change, LogMutation at version. Returns the next catalog.
func step(t *testing.T, s *Store, prev *catalog.Catalog, version uint64, name string, card float64) *catalog.Catalog {
	t.Helper()
	next := prev.Clone()
	next.MustAddTable(catalog.SimpleTable(name, card, map[string]float64{"a": 2}))
	if err := s.LogMutation(version, prev, next); err != nil {
		t.Fatalf("LogMutation v%d: %v", version, err)
	}
	return next
}

// sameStats asserts two catalogs carry byte-identical statistics.
func sameStats(t *testing.T, want, got *catalog.Catalog) {
	t.Helper()
	var a, b bytes.Buffer
	if err := want.ExportJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.ExportJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("catalogs differ:\nwant %s\ngot  %s", a.String(), b.String())
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Version() != 1 {
		t.Fatalf("fresh dir recovered at version %d, want 1", s.Version())
	}
	cat := s.Catalog()
	cat = step(t, s, cat, 2, "r", 100)
	cat = step(t, s, cat, 3, "s", 200)
	cat = step(t, s, cat, 4, "r", 150) // replace: only r in this delta
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Version() != 4 {
		t.Fatalf("recovered version %d, want 4", s2.Version())
	}
	if s2.Stats().TornTailRecovered {
		t.Fatal("clean shutdown reported a torn tail")
	}
	sameStats(t, cat, s2.Catalog())
	st := s2.Stats()
	if st.RecordsSinceCheckpoint != 3 || st.CheckpointVersion != 1 {
		t.Fatalf("stats %+v, want 3 records since implicit checkpoint 1", st)
	}
}

func TestEmptyDeltaAdvancesVersion(t *testing.T) {
	// BuildIndex publishes a new version without changing any statistics;
	// the WAL must still advance the version so recovery lands on it.
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := step(t, s, s.Catalog(), 2, "r", 10)
	if err := s.LogMutation(3, cat, cat.Clone()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Version() != 3 {
		t.Fatalf("recovered version %d, want 3", s2.Version())
	}
	sameStats(t, cat, s2.Catalog())
}

func TestCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := s.Catalog()
	cat = step(t, s, cat, 2, "r", 100)
	cat = step(t, s, cat, 3, "s", 200)
	if err := s.Checkpoint(cat, 3); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.WALSizeBytes != 0 || st.RecordsSinceCheckpoint != 0 || st.CheckpointVersion != 3 {
		t.Fatalf("post-checkpoint stats %+v", st)
	}
	cat = step(t, s, cat, 4, "u", 7)
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Version() != 4 {
		t.Fatalf("recovered version %d, want 4", s2.Version())
	}
	sameStats(t, cat, s2.Catalog())
	if got := s2.Stats().CheckpointVersion; got != 3 {
		t.Fatalf("checkpoint version %d, want 3", got)
	}
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetOptions(Options{CheckpointEvery: 2})
	cat := s.Catalog()
	cat = step(t, s, cat, 2, "r", 100)
	if st := s.Stats(); st.CheckpointVersion != 1 {
		t.Fatalf("checkpointed too early: %+v", st)
	}
	step(t, s, cat, 3, "s", 200)
	st := s.Stats()
	if st.CheckpointVersion != 3 || st.RecordsSinceCheckpoint != 0 || st.WALSizeBytes != 0 {
		t.Fatalf("auto-checkpoint did not fire: %+v", st)
	}
}

// TestTornTailTruncated crashes the writer mid-record at every interesting
// byte offset and asserts recovery lands exactly on the last acknowledged
// version with the torn bytes gone.
func TestTornTailTruncated(t *testing.T) {
	for _, short := range []int{0, 3, 7, 8, 15, 20, 100} {
		t.Run(string(rune('a'+short%26))+"short", func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cat := step(t, s, s.Catalog(), 2, "r", 100) // acknowledged

			faultinject.Enable(PointWALAppend, faultinject.Fault{
				Payload: faultinject.DiskFault{ShortWrite: short},
			})
			next := cat.Clone()
			next.MustAddTable(catalog.SimpleTable("s", 200, map[string]float64{"a": 2}))
			err = s.LogMutation(3, cat, next)
			if !errors.Is(err, governor.ErrDurability) || !errors.Is(err, faultinject.ErrCrash) {
				t.Fatalf("crash fault surfaced as %v", err)
			}
			// The store is poisoned: further mutations refuse.
			if err := s.LogMutation(3, cat, next); !errors.Is(err, governor.ErrDurability) {
				t.Fatalf("poisoned store accepted a mutation: %v", err)
			}
			s.Close() // simulated-crash close: leaves the torn bytes in place

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			if s2.Version() != 2 {
				t.Fatalf("recovered version %d, want last acknowledged 2", s2.Version())
			}
			if short > 0 && !s2.Stats().TornTailRecovered {
				t.Fatal("recovery did not report the torn tail")
			}
			sameStats(t, cat, s2.Catalog())
			s2.Close()

			// The truncate removed the torn bytes: a third open is clean.
			s3, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if s3.Stats().TornTailRecovered {
				t.Fatal("torn tail reported again after truncating recovery")
			}
			if s3.Version() != 2 {
				t.Fatalf("version %d after second recovery, want 2", s3.Version())
			}
		})
	}
}

// TestCrashBeforeSync kills the writer after the record is fully written
// but before the fsync: the record may or may not survive a real crash, so
// recovery must land on either version — here the bytes are in the file,
// so it lands one ahead of the last acknowledgement. That is the one-
// in-flight divergence the acknowledgement contract allows.
func TestCrashBeforeSync(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := step(t, s, s.Catalog(), 2, "r", 100)

	faultinject.Enable(PointWALSync, faultinject.Fault{})
	next := cat.Clone()
	next.MustAddTable(catalog.SimpleTable("s", 200, map[string]float64{"a": 2}))
	if err := s.LogMutation(3, cat, next); !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("sync crash surfaced as %v", err)
	}
	s.Close()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Version() != 3 {
		t.Fatalf("recovered version %d, want 3 (record reached the file)", s2.Version())
	}
	sameStats(t, next, s2.Catalog())
}

// TestCrashDuringCheckpoint covers the three checkpoint crash windows:
// mid-temp-write, before the rename, and after the rename but before the
// WAL truncate. In every case recovery yields the acknowledged state.
func TestCrashDuringCheckpoint(t *testing.T) {
	cases := []struct {
		name  string
		point string
		fault faultinject.Fault
		// wantCkpt is the checkpoint version a subsequent recovery should
		// observe: 1 (implicit) when the crash prevented publication, the
		// checkpointed version when the rename happened.
		wantCkpt uint64
	}{
		{"torn-temp-write", PointCheckpointWrite, faultinject.Fault{Payload: faultinject.DiskFault{ShortWrite: 40}}, 1},
		{"before-rename", PointCheckpointRename, faultinject.Fault{}, 1},
		{"before-wal-truncate", PointWALTruncate, faultinject.Fault{}, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			cat := s.Catalog()
			cat = step(t, s, cat, 2, "r", 100)
			cat = step(t, s, cat, 3, "s", 200)

			faultinject.Enable(tc.point, tc.fault)
			if err := s.Checkpoint(cat, 3); !errors.Is(err, governor.ErrDurability) {
				t.Fatalf("checkpoint crash surfaced as %v", err)
			}
			s.Close()

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer s2.Close()
			if s2.Version() != 3 {
				t.Fatalf("recovered version %d, want 3", s2.Version())
			}
			sameStats(t, cat, s2.Catalog())
			if got := s2.Stats().CheckpointVersion; got != tc.wantCkpt {
				t.Fatalf("checkpoint version %d, want %d", got, tc.wantCkpt)
			}
			// Recovery cleans up any stranded temp artifact.
			tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if len(tmps) != 0 {
				t.Fatalf("stray temp artifacts after recovery: %v", tmps)
			}
		})
	}
}

// TestStaleRecordsSkipped drives the full crash-between-rename-and-
// truncate scenario further: after recovering past it, new mutations
// append on a truncated WAL and a second recovery still agrees.
func TestStaleRecordsSkipped(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := s.Catalog()
	cat = step(t, s, cat, 2, "r", 100)
	faultinject.Enable(PointWALTruncate, faultinject.Fault{})
	if err := s.Checkpoint(cat, 2); err == nil {
		t.Fatal("injected truncate crash did not surface")
	}
	faultinject.Reset()
	s.Close()

	// The WAL still holds the record for version 2; the checkpoint also
	// holds version 2. Recovery must not apply the stale record twice.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Version() != 2 {
		t.Fatalf("recovered version %d, want 2", s2.Version())
	}
	sameStats(t, cat, s2.Catalog())
	cat = step(t, s2, cat, 3, "s", 50)
	s2.Close()

	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if s3.Version() != 3 {
		t.Fatalf("final recovered version %d, want 3", s3.Version())
	}
	sameStats(t, cat, s3.Catalog())
}

// TestWALFrameRoundTrip pins the record framing itself, including torn
// prefixes of every length.
func TestWALFrameRoundTrip(t *testing.T) {
	delta := []byte(`{"tables":[]}`)
	frame := encodeRecord(7, delta)
	v, d, err := readRecord(bytes.NewReader(frame))
	if err != nil || v != 7 || !bytes.Equal(d, delta) {
		t.Fatalf("round trip: v=%d d=%q err=%v", v, d, err)
	}
	if _, _, err := readRecord(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		if _, _, err := readRecord(bytes.NewReader(frame[:cut])); !errors.Is(err, errTorn) {
			t.Fatalf("prefix of %d bytes: %v, want errTorn", cut, err)
		}
	}
	// A flipped payload byte is a checksum failure, also torn.
	bad := append([]byte(nil), frame...)
	bad[len(bad)-1] ^= 0x01
	if _, _, err := readRecord(bytes.NewReader(bad)); !errors.Is(err, errTorn) {
		t.Fatalf("flipped byte: %v, want errTorn", err)
	}
}

// TestAtomicWriteFile pins the satellite contract: the write is all-or-
// nothing and a failure leaves no temp file behind.
func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "stats.json")
	if err := AtomicWriteFile(path, []byte("one"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := AtomicWriteFile(path, []byte("two"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "two" {
		t.Fatalf("read back %q err %v", got, err)
	}
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("stray temp files: %v", tmps)
	}
	// Writing into a missing directory fails cleanly with ErrDurability.
	if err := AtomicWriteFile(filepath.Join(dir, "no", "such", "dir.json"), []byte("x"), 0o644); !errors.Is(err, governor.ErrDurability) {
		t.Fatalf("missing dir: %v, want ErrDurability", err)
	}
}

// TestCorruptCheckpointRejected ensures a damaged checkpoint (outside the
// crash model — bit rot or hand editing) fails recovery loudly instead of
// silently serving wrong statistics.
func TestCorruptCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat := step(t, s, s.Catalog(), 2, "r", 100)
	if err := s.Checkpoint(cat, 2); err != nil {
		t.Fatal(err)
	}
	s.Close()

	path := filepath.Join(dir, checkpointName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"card": 100`), []byte(`"card": 999`), 1)
	if err := os.WriteFile(path, data, 0o644); err != nil { //atomicwrite:allow test deliberately corrupts the checkpoint
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, governor.ErrDurability) || !errors.Is(err, governor.ErrBadStats) {
		t.Fatalf("corrupt checkpoint recovered with %v, want ErrDurability wrapping ErrBadStats", err)
	}
}
