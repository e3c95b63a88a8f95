package els

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// TestOpenRoundTrip pins the headline durability contract: a system opened
// on a directory, mutated, and closed comes back at the same catalog
// version with bit-identical estimates.
func TestOpenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sys.Durable() {
		t.Fatal("Open returned a non-durable system")
	}
	sys.MustDeclareStats("S", 1000, map[string]float64{"s": 1000})
	sys.MustDeclareStats("M", 10000, map[string]float64{"m": 10000})
	sql := "SELECT COUNT(*) FROM S, M WHERE s = m AND s < 100"
	want, err := sys.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	version := sys.CatalogVersion()
	if err := sys.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close(context.Background())
	if re.CatalogVersion() != version {
		t.Fatalf("recovered at version %d, want %d", re.CatalogVersion(), version)
	}
	got, err := re.Estimate(sql, AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got.FinalSize) != math.Float64bits(want.FinalSize) {
		t.Fatalf("recovered estimate %v not bit-identical to %v", got.FinalSize, want.FinalSize)
	}
	if got.CatalogVersion != version {
		t.Fatalf("recovered estimate pinned version %d, want %d", got.CatalogVersion, version)
	}
}

// TestOpenCrashMidMutation injects a crash into the WAL append and checks
// the acknowledge semantics end to end: the failed mutation vanishes, the
// catalog freezes with ErrDurability, and reopening recovers the last
// acknowledged version.
func TestOpenCrashMidMutation(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	sys, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustDeclareStats("S", 1000, map[string]float64{"s": 1000})
	acked := sys.CatalogVersion()

	faultinject.Enable("durable.wal.append", faultinject.Fault{
		Payload: faultinject.DiskFault{ShortWrite: 5},
	})
	err = sys.DeclareStats("M", 10000, map[string]float64{"m": 10000})
	if !errors.Is(err, ErrDurability) {
		t.Fatalf("crashed mutation returned %v, want ErrDurability", err)
	}
	if sys.CatalogVersion() != acked {
		t.Fatalf("unacknowledged mutation was published: version %d, want %d", sys.CatalogVersion(), acked)
	}
	// The catalog is frozen; reads still work.
	if err := sys.DeclareStats("T", 5, map[string]float64{"t": 5}); !errors.Is(err, ErrDurability) {
		t.Fatalf("frozen catalog accepted a mutation: %v", err)
	}
	if st := sys.DurabilityStats(); st.Poisoned == nil {
		t.Fatal("DurabilityStats does not report the freeze")
	}
	if _, err := sys.Estimate("SELECT COUNT(*) FROM S WHERE s < 10", AlgorithmELS); err != nil {
		t.Fatalf("reads failed on a frozen catalog: %v", err)
	}
	sys.Close(context.Background())
	faultinject.Reset()

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close(context.Background())
	if re.CatalogVersion() != acked {
		t.Fatalf("recovered version %d, want last acknowledged %d", re.CatalogVersion(), acked)
	}
	if tables := re.Tables(); len(tables) != 1 || tables[0] != "S" {
		t.Fatalf("recovered tables %v, want [S]", tables)
	}
	// The recovered system accepts mutations again.
	if err := re.DeclareStats("M", 10000, map[string]float64{"m": 10000}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointAndAutoCheckpoint exercises the compaction path through
// the public API, including the Limits knob.
func TestCheckpointAndAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sys.MustDeclareStats("A", 10, map[string]float64{"a": 2})
	if err := sys.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := sys.DurabilityStats()
	if st.CheckpointVersion != sys.CatalogVersion() || st.WALSizeBytes != 0 {
		t.Fatalf("post-checkpoint stats %+v at version %d", st, sys.CatalogVersion())
	}

	sys.SetLimits(Limits{CheckpointEvery: 2})
	sys.MustDeclareStats("B", 10, map[string]float64{"b": 2})
	sys.MustDeclareStats("C", 10, map[string]float64{"c": 2})
	st = sys.DurabilityStats()
	if st.CheckpointVersion != sys.CatalogVersion() || st.RecordsSinceCheckpoint != 0 {
		t.Fatalf("auto-checkpoint did not fire: %+v at version %d", st, sys.CatalogVersion())
	}
	if err := sys.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close(context.Background())
	if got, want := re.Tables(), []string{"A", "B", "C"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("recovered tables %v, want %v", got, want)
	}
}

// TestCheckpointWithoutDurableStore pins the in-memory behavior.
func TestCheckpointWithoutDurableStore(t *testing.T) {
	sys := New()
	if sys.Durable() {
		t.Fatal("New reported durable")
	}
	if err := sys.Checkpoint(); !errors.Is(err, ErrDurability) {
		t.Fatalf("Checkpoint on in-memory system: %v, want ErrDurability", err)
	}
	if st := sys.DurabilityStats(); st.Dir != "" {
		t.Fatalf("in-memory DurabilityStats %+v, want zero", st)
	}
}

// TestExportImportStatsFile pins the atomic stats-file satellite: the
// export is all-or-nothing on disk and leaves no temp artifacts.
func TestExportImportStatsFile(t *testing.T) {
	dir := t.TempDir()
	src := New()
	src.MustDeclareStats("S", 1000, map[string]float64{"s": 1000})
	path := filepath.Join(dir, "stats.json")
	if err := src.ExportStatsFile(path); err != nil {
		t.Fatal(err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("stray temp files after export: %v", tmps)
	}
	dst := New()
	if err := dst.ImportStatsFile(path); err != nil {
		t.Fatal(err)
	}
	if card, err := dst.TableCard("S"); err != nil || card != 1000 {
		t.Fatalf("imported card %g err %v", card, err)
	}
	if err := dst.ImportStatsFile(filepath.Join(dir, "missing.json")); !errors.Is(err, ErrBadStats) {
		t.Fatalf("missing stats file: %v, want ErrBadStats", err)
	}
}

// A budgeted join through a durable system partitions in memory: it
// reports its partitioning passes and adds nothing to the data directory
// (there is no spill subtree for Open to recover).
func TestDurableBudgetedJoinTouchesNoDisk(t *testing.T) {
	dir := t.TempDir()
	sys, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close(context.Background())
	mkRows := func(n, dom int) [][]int64 {
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = []int64{int64(i % dom)}
		}
		return rows
	}
	if err := sys.LoadTable("H1", []string{"k"}, mkRows(900, 40)); err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadTable("H2", []string{"k"}, mkRows(1100, 40)); err != nil {
		t.Fatal(err)
	}
	before := dirTree(t, dir)
	sys.SetLimits(Limits{MaxMemory: 4096})
	res, err := sys.Query("SELECT COUNT(*) FROM H1, H2 WHERE H1.k = H2.k", AlgorithmELS)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpillCount == 0 {
		t.Fatal("the 4 KiB budget did not force the join to partition")
	}
	if after := dirTree(t, dir); strings.Join(after, ",") != strings.Join(before, ",") {
		t.Fatalf("the budgeted join changed the data directory: %v, was %v", after, before)
	}
}

// dirTree lists every path under dir at any depth.
func dirTree(t *testing.T, dir string) []string {
	t.Helper()
	var paths []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil {
			paths = append(paths, path)
		}
		return nil
	})
	return paths
}
