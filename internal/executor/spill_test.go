package executor

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/durable"
	"repro/internal/expr"
	"repro/internal/faultinject"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// spillPlan builds a two-table equijoin whose build side is far larger
// than the tiny byte budget the tests run under, planned hash-only so the
// spill path is the only way through.
func spillPlan(t *testing.T) (*catalog.Catalog, optimizer.Plan) {
	t.Helper()
	cat := buildCatalog(t, chainSpecs(200, 260)...)
	return cat, hashPlan(t, cat, "T0", "T1")
}

// hashPlan plans l ⋈ r on column k with the hash join as the only method.
func hashPlan(t *testing.T, cat *catalog.Catalog, l, r string) optimizer.Plan {
	t.Helper()
	tabs := []cardest.TableRef{{Table: l}, {Table: r}}
	preds := []expr.Predicate{expr.NewJoin(ref(l, "k"), expr.OpEQ, ref(r, "k"))}
	est, err := cardest.New(cat, tabs, preds, cardest.ELS())
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(est, optimizer.Options{Methods: []optimizer.JoinMethod{optimizer.HashJoin}})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.BestPlan()
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// execSpill runs the plan under the given byte budget (0 = unbudgeted)
// and returns the result, the governor's tuple/row charges, and the
// governor for spill/memory introspection.
func execSpill(t *testing.T, cat *catalog.Catalog, plan optimizer.Plan, workers int, budget int64, dir string) (*Result, [2]int64, *governor.Governor) {
	t.Helper()
	gov := governor.New(context.Background(), governor.Limits{Workers: workers, MaxMemory: budget})
	exec := NewGoverned(cat, gov)
	exec.SetSpillDir(dir)
	res, err := exec.Execute(plan)
	if err != nil {
		t.Fatalf("workers=%d budget=%d: %v", workers, budget, err)
	}
	tuples, rows, _ := gov.Usage()
	return res, [2]int64{tuples, rows}, gov
}

// execSpillErr is execSpill for the fault tests: it returns the error
// instead of failing on it.
func execSpillErr(cat *catalog.Catalog, plan optimizer.Plan, budget int64, dir string) error {
	gov := governor.New(context.Background(), governor.Limits{Workers: 1, MaxMemory: budget})
	exec := NewGoverned(cat, gov)
	exec.SetSpillDir(dir)
	_, err := exec.Execute(plan)
	return err
}

// listSpillFiles returns every *.spill path under dir (any depth).
func listSpillFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == SpillSuffix {
			files = append(files, path)
		}
		return nil
	})
	return files
}

// The spilled join must be bit-identical to the unbudgeted in-memory
// join — same rows in the same order, same TuplesScanned and Comparisons,
// same governor tuple/row charges — at every worker count and for every
// key representation of the kernel (native int64, Value.Key() strings for
// bool and for int64-vs-float64 keys), and it must clean its runs up on
// the way out.
func TestSpillHashJoinBitIdentical(t *testing.T) {
	intCat, intPlan := spillPlan(t)
	keyCat := catalog.New()
	loadKeyTypeTables(t, keyCat)
	for _, tc := range []struct {
		name string
		cat  *catalog.Catalog
		plan optimizer.Plan
	}{
		{"int64", intCat, intPlan},
		{"bool", keyCat, hashPlan(t, keyCat, "B1", "B2")},
		{"int64-vs-float64", keyCat, hashPlan(t, keyCat, "MI", "MF")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			oracle, oracleUsage, _ := execSpill(t, tc.cat, tc.plan, 1, 0, dir)
			for _, workers := range []int{1, 4, 8} {
				res, usage, gov := execSpill(t, tc.cat, tc.plan, workers, 2048, dir)
				if count, _ := gov.SpillStats(); count == 0 {
					t.Fatalf("workers=%d: the 2 KiB budget did not force a spill", workers)
				}
				if res.Stats.RowsProduced != oracle.Stats.RowsProduced ||
					res.Stats.TuplesScanned != oracle.Stats.TuplesScanned ||
					res.Stats.Comparisons != oracle.Stats.Comparisons {
					t.Fatalf("workers=%d: spilled stats (%d rows, %d tuples, %d cmp) vs in-memory (%d, %d, %d)",
						workers, res.Stats.RowsProduced, res.Stats.TuplesScanned, res.Stats.Comparisons,
						oracle.Stats.RowsProduced, oracle.Stats.TuplesScanned, oracle.Stats.Comparisons)
				}
				if usage != oracleUsage {
					t.Fatalf("workers=%d: governor charges %v (spilled) vs %v (in-memory)", workers, usage, oracleUsage)
				}
				for r := 0; r < oracle.Table.NumRows(); r++ {
					for c := 0; c < oracle.Table.Schema().NumColumns(); c++ {
						if storage.Compare(oracle.Table.Value(r, c), res.Table.Value(r, c)) != 0 {
							t.Fatalf("workers=%d: row %d col %d differs: %s vs %s",
								workers, r, c, res.Table.Value(r, c), oracle.Table.Value(r, c))
						}
					}
				}
			}
			if files := listSpillFiles(t, dir); len(files) != 0 {
				t.Fatalf("spill runs leaked after clean completion: %v", files)
			}
		})
	}
}

// A failure injected at the spill-write probe must surface as a typed
// ErrMemory — the query could not be served within its byte budget — with
// no partial result and no leaked run files.
func TestSpillWriteFault(t *testing.T) {
	cat, plan := spillPlan(t)
	dir := t.TempDir()
	boom := fmt.Errorf("disk full")
	faultinject.Enable(PointSpillWrite, faultinject.Fault{Err: boom})
	defer faultinject.Reset()
	err := execSpillErr(cat, plan, 2048, dir)
	if !errors.Is(err, governor.ErrMemory) {
		t.Fatalf("spill write fault surfaced as %v, want ErrMemory", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("spill write fault lost its cause: %v", err)
	}
	if files := listSpillFiles(t, dir); len(files) != 0 {
		t.Fatalf("spill runs leaked after write fault: %v", files)
	}
}

// A short write (torn run file) behaves as a mid-write crash: typed
// ErrMemory wrapping the simulated-crash sentinel; the per-query spill
// directory (and the torn file) die with the failed query's cleanup.
func TestSpillWriteTorn(t *testing.T) {
	cat, plan := spillPlan(t)
	dir := t.TempDir()
	faultinject.Enable(PointSpillWrite, faultinject.Fault{Payload: faultinject.DiskFault{ShortWrite: 6}})
	defer faultinject.Reset()
	err := execSpillErr(cat, plan, 2048, dir)
	if !errors.Is(err, governor.ErrMemory) || !errors.Is(err, faultinject.ErrCrash) {
		t.Fatalf("torn spill write surfaced as %v, want ErrMemory wrapping ErrCrash", err)
	}
	if files := listSpillFiles(t, dir); len(files) != 0 {
		t.Fatalf("torn run survived the failed query's cleanup: %v", files)
	}
}

// A failure injected at the spill-read probe must surface as ErrMemory
// with nothing left behind.
func TestSpillReadFault(t *testing.T) {
	cat, plan := spillPlan(t)
	dir := t.TempDir()
	faultinject.Enable(PointSpillRead, faultinject.Fault{Err: fmt.Errorf("read gone bad")})
	defer faultinject.Reset()
	err := execSpillErr(cat, plan, 2048, dir)
	if !errors.Is(err, governor.ErrMemory) {
		t.Fatalf("spill read fault surfaced as %v, want ErrMemory", err)
	}
	if files := listSpillFiles(t, dir); len(files) != 0 {
		t.Fatalf("spill runs leaked after read fault: %v", files)
	}
}

// A crash injected during cleanup leaves the runs on disk (that is the
// point — a real crash would) and surfaces typed; the recovery sweep
// (durable.SweepSpills, run by els.Open) must then collect the orphans.
func TestSpillRemoveFaultThenSweep(t *testing.T) {
	cat, plan := spillPlan(t)
	// Mirror the durable layout exactly: queries spill into per-query
	// temp dirs under <dataDir>/spill, the tree SweepSpills(dataDir)
	// collects (els.Open wires the same path).
	dataDir := t.TempDir()
	spillDir := filepath.Join(dataDir, durable.SpillDirName)
	faultinject.Enable(PointSpillRemove, faultinject.Fault{Err: faultinject.ErrCrash})
	defer faultinject.Reset()
	err := execSpillErr(cat, plan, 2048, spillDir)
	if !errors.Is(err, governor.ErrMemory) {
		t.Fatalf("spill remove fault surfaced as %v, want ErrMemory", err)
	}
	orphans := listSpillFiles(t, dataDir)
	if len(orphans) == 0 {
		t.Fatal("remove fault left no orphaned runs — the crash model has no teeth")
	}
	faultinject.Reset()
	durable.SweepSpills(dataDir)
	if files := listSpillFiles(t, dataDir); len(files) != 0 {
		t.Fatalf("recovery sweep missed orphaned runs: %v", files)
	}
}

// A corrupted run (bit-flip on disk) must be caught by the frame checksum
// and surface as ErrMemory, never as wrong rows.
func TestSpillCorruptRun(t *testing.T) {
	cat, plan := spillPlan(t)
	dir := t.TempDir()
	// Arm the read probe with a payload-only fault so Fire reports hits
	// without failing; use it to corrupt the first run before it is read.
	corrupted := false
	faultinject.Reset()
	// Instead of a probe, corrupt between phases: run once with a remove
	// fault to keep the runs, corrupt one, and decode it directly.
	faultinject.Enable(PointSpillRemove, faultinject.Fault{Err: faultinject.ErrCrash})
	_ = execSpillErr(cat, plan, 2048, dir)
	faultinject.Reset()
	files := listSpillFiles(t, dir)
	if len(files) == 0 {
		t.Fatal("no runs to corrupt")
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 12 {
		data[12] ^= 0x40
		corrupted = true
	}
	if !corrupted {
		t.Fatalf("run file too short to corrupt: %d bytes", len(data))
	}
	if err := os.WriteFile(files[0], data, 0o644); err != nil { //atomicwrite:allow test corrupts a spill run in place
		t.Fatal(err)
	}
	gov := governor.New(context.Background(), governor.Limits{MaxMemory: 2048})
	exec := NewGoverned(catalog.New(), gov)
	if _, rerr := exec.readSpillRun(files[0]); !errors.Is(rerr, governor.ErrMemory) || !errors.Is(rerr, errSpillCorrupt) {
		t.Fatalf("corrupt run read back as %v, want ErrMemory wrapping the corruption sentinel", rerr)
	}
}

// Unbudgeted queries must never touch the spill path, whatever the data
// size: the budget is the only trigger.
func TestNoSpillWithoutBudget(t *testing.T) {
	cat, plan := spillPlan(t)
	dir := t.TempDir()
	_, _, gov := execSpill(t, cat, plan, 1, 0, dir)
	if count, bytes := gov.SpillStats(); count != 0 || bytes != 0 {
		t.Fatalf("unbudgeted query spilled: %d spills, %d bytes", count, bytes)
	}
	if files := listSpillFiles(t, dir); len(files) != 0 {
		t.Fatalf("unbudgeted query left spill files: %v", files)
	}
}

// A datagen spec sanity check for the spill tests: the generated build
// side really is bigger than the budget the tests use.
func TestSpillFixtureOversized(t *testing.T) {
	cat := buildCatalog(t, chainSpecs(200, 260)...)
	if b := cat.Data("T1").ApproxBytes(); b <= 2048 {
		t.Fatalf("fixture build side is only %d bytes; the spill tests' 2 KiB budget would not engage", b)
	}
}

// FuzzSpillRun feeds arbitrary bytes to the spill read path twice: as a
// whole run file, which the frame check (readSpillRun) must vet, and as
// the payload of a correctly framed run, which reaches the row decoder
// (decodeRow). Either way the read must succeed or fail with a typed
// ErrMemory — never panic, whatever a torn or bit-rotted disk hands back.
func FuzzSpillRun(f *testing.F) {
	schema := storage.MustSchema(
		storage.ColumnDef{Name: "i", Type: storage.TypeInt64},
		storage.ColumnDef{Name: "f", Type: storage.TypeFloat64},
		storage.ColumnDef{Name: "b", Type: storage.TypeBool},
		storage.ColumnDef{Name: "s", Type: storage.TypeString})
	exec := New(catalog.New())
	dir := f.TempDir()
	// frame writes payload as a well-formed run file and returns its path.
	frame := func(tb testing.TB, payload []byte) string {
		w := newSpillWriter(exec, dir, "fuzz", 0)
		w.buf = payload
		if err := w.flush(); err != nil {
			tb.Fatal(err)
		}
		if len(w.files) == 0 { // empty payload: nothing to write
			return ""
		}
		return w.files[0]
	}
	// Seed with a well-formed payload (one full row, one all-NULL row), its
	// framed file, and torn and corrupted variants of both.
	payload := encodeVals(nil, []storage.Value{
		storage.Int64(-7), storage.Float64(2.5), storage.Bool(true), storage.String64("spill")})
	payload = encodeVals(payload, []storage.Value{
		storage.Null(storage.TypeInt64), storage.Null(storage.TypeFloat64),
		storage.Null(storage.TypeBool), storage.Null(storage.TypeString)})
	file, err := os.ReadFile(frame(f, payload))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{payload, file} {
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)-1] ^= 0x01
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(flipped)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		raw := filepath.Join(dir, "raw"+SpillSuffix)
		if err := os.WriteFile(raw, data, 0o644); err != nil { //atomicwrite:allow test plants arbitrary bytes as a spill run
			t.Fatal(err)
		}
		for _, path := range []string{raw, frame(t, data)} {
			if path == "" {
				continue
			}
			rows := 0
			err := exec.readRuns([]string{path}, schema, func(vals []storage.Value) error {
				if len(vals) != schema.NumColumns() {
					t.Fatalf("decoded a %d-value row for a %d-column schema", len(vals), schema.NumColumns())
				}
				rows++
				return nil
			})
			if err != nil && !errors.Is(err, governor.ErrMemory) {
				t.Fatalf("%s: untyped spill read failure after %d rows: %v", filepath.Base(path), rows, err)
			}
		}
	})
}
