// Package els is a Go implementation of Algorithm ELS from "On the
// Estimation of Join Result Sizes" (Swami & Schiefer, EDBT 1994), packaged
// as a small analytical query system: an in-memory relational store, an
// ANALYZE-style statistics collector, a SQL front end for conjunctive
// select-project-join queries, a System-R style optimizer whose cardinality
// estimator is pluggable, and an executor.
//
// The headline API is estimation: given table statistics and a query, the
// system estimates intermediate join result sizes under any of the paper's
// algorithms — the multiplicative Rule M of Selinger et al. (Algorithm SM),
// the smallest-selectivity Rule SS (Algorithm SSS), the
// representative-selectivity proposal, and the paper's Algorithm ELS
// (equivalence classes + effective statistics + largest-selectivity Rule
// LS) — and can then plan and execute the query so the impact of the
// estimates on real plans is observable.
//
// A minimal session:
//
//	sys := els.New()
//	sys.MustDeclareStats("R1", 100, map[string]float64{"x": 10})
//	sys.MustDeclareStats("R2", 1000, map[string]float64{"y": 100})
//	sys.MustDeclareStats("R3", 1000, map[string]float64{"z": 1000})
//	est, _ := sys.Estimate("SELECT COUNT(*) FROM R1, R2, R3 WHERE x = y AND y = z", els.AlgorithmELS)
//	fmt.Println(est.FinalSize) // 1000
package els

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/admission"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/csvload"
	"repro/internal/datagen"
	"repro/internal/durable"
	"repro/internal/plancache"
	"repro/internal/replica"
	"repro/internal/snapshot"
	"repro/internal/storage"
)

// Algorithm selects the estimation algorithm, following the naming of the
// paper's Section 8 experiment.
type Algorithm int

const (
	// AlgorithmELS is the paper's algorithm: transitive closure, effective
	// statistics (local predicates folded per Section 5, single-table
	// j-equivalent columns per Section 6) and largest-selectivity Rule LS.
	AlgorithmELS Algorithm = iota
	// AlgorithmSM is the standard multiplicative algorithm (Selinger):
	// raw column cardinalities, Rule M, no transitive closure.
	AlgorithmSM
	// AlgorithmSMPTC is AlgorithmSM run after predicate transitive closure
	// (the paper's "Orig. + PTC" rows).
	AlgorithmSMPTC
	// AlgorithmSSS is the smallest-selectivity algorithm after transitive
	// closure.
	AlgorithmSSS
	// AlgorithmRepSmallest is the representative-selectivity proposal of
	// Section 3.3 using the smallest pairwise selectivity per class.
	AlgorithmRepSmallest
	// AlgorithmRepLargest is the representative-selectivity proposal using
	// the largest pairwise selectivity per class.
	AlgorithmRepLargest
	// AlgorithmELSHist is Algorithm ELS with histogram-based join
	// selectivities: the uniformity assumption for join columns is relaxed
	// using per-column histograms when available (the paper's Section 9
	// future-work extension). Tables loaded with LoadTableHist or analyzed
	// with histograms benefit; others fall back to Equation 2.
	AlgorithmELSHist
)

// algorithms is the one table of supported algorithms, indexed by
// Algorithm: the name String prints and ParseAlgorithm accepts, and the
// estimator configuration the name stands for.
var algorithms = [...]struct {
	name string
	cfg  cardest.Config
}{
	AlgorithmELS:   {"ELS", cardest.ELS()},
	AlgorithmSM:    {"SM", cardest.SM()},
	AlgorithmSMPTC: {"SM+PTC", cardest.SM().WithClosure()},
	AlgorithmSSS:   {"SSS+PTC", cardest.SSS().WithClosure()},
	AlgorithmRepSmallest: {"REP(smallest)", cardest.Config{Rule: cardest.RuleRepresentative, ApplyClosure: true,
		Rep: cardest.RepSmallest}},
	AlgorithmRepLargest: {"REP(largest)", cardest.Config{Rule: cardest.RuleRepresentative, ApplyClosure: true,
		Rep: cardest.RepLargest}},
	AlgorithmELSHist: {"ELS+hist", func() cardest.Config {
		cfg := cardest.ELS()
		cfg.Sel.HistogramJoins = true
		return cfg
	}()},
}

func (a Algorithm) valid() bool { return a >= 0 && int(a) < len(algorithms) }

// String names the algorithm.
func (a Algorithm) String() string {
	if !a.valid() {
		return "unknown"
	}
	return algorithms[a].name
}

// config returns the internal estimator configuration for the algorithm.
func (a Algorithm) config() (cardest.Config, error) {
	if !a.valid() {
		return cardest.Config{}, fmt.Errorf("%w: unknown algorithm %d", ErrParse, int(a))
	}
	return algorithms[a].cfg, nil
}

// Algorithms lists every supported algorithm in a stable order.
func Algorithms() []Algorithm {
	all := make([]Algorithm, len(algorithms))
	for i := range all {
		all[i] = Algorithm(i)
	}
	return all
}

// ParseAlgorithm resolves an algorithm by its String name,
// case-insensitively; the empty name selects AlgorithmELS. An unknown name
// is an ErrParse.
func ParseAlgorithm(name string) (Algorithm, error) {
	if name == "" {
		return AlgorithmELS, nil
	}
	for a := range algorithms {
		if strings.EqualFold(algorithms[a].name, name) {
			return Algorithm(a), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown algorithm %q", ErrParse, name)
}

// System is a self-contained instance: catalog, optional data tables, and
// the estimation/planning/execution pipeline.
//
// A System serves concurrent callers. Every query pins an immutable
// copy-on-write catalog snapshot at admission, so statistics refresh
// (DeclareStats, ImportStats, LoadTable, ...) never blocks or corrupts
// in-flight estimation: a query sees exactly one published catalog
// version end to end, and Estimate.CatalogVersion reports which. The
// admission fields of Limits (MaxConcurrent, MaxQueue, QueueTimeout)
// bound concurrency and shed load with ErrOverloaded; SetRetryPolicy and
// SetBreaker add opt-in retry and circuit-breaking; Close drains the
// system. RobustnessStats observes all of it.
type System struct {
	store   *snapshot.Store       // versioned COW catalog
	adm     *admission.Controller // concurrency gate + drain
	breaker *admission.Breaker    // consecutive-internal-error circuit breaker
	dur     *durable.Store        // WAL + checkpoints; nil for in-memory systems (New)
	cache   *plancache.Cache      // version-keyed plan/estimate cache

	// Replication. On a primary, shipper streams acknowledged WAL records
	// to attached replicas (created lazily by AttachReplica). On the inner
	// system of an els.Replica, fol gates every read through the staleness
	// and quarantine checks until promoted flips.
	//lockorder:level 24
	shipMu   sync.Mutex
	shipper  *replica.Shipper
	fol      *replica.Follower
	promoted atomic.Bool

	// closing flips at the very start of Close, before the admission drain
	// begins, so AttachReplica and Checkpoint arriving during the drain
	// window fail fast with a typed ErrClosed instead of racing the
	// shipper/WAL teardown (or blocking behind it).
	closing atomic.Bool

	//lockorder:level 20
	mu     sync.RWMutex
	limits Limits // default per-query resource budgets (zero: ungoverned)

	// admObs, when installed, observes every admitted query's queue wait
	// (see SetAdmissionObserver). Guarded by mu.
	admObs func(wait time.Duration)

	retry    RetryPolicy // opt-in transient-error retry (zero: off)
	retryRng *rand.Rand  // seeded jitter source, guarded by retryMu
	//lockorder:level 22
	retryMu sync.Mutex

	retries        atomic.Uint64 // retry attempts performed
	retrySuccesses atomic.Uint64 // queries that succeeded after ≥1 retry

	// Memory-governance counters, cumulative since New/Open.
	spilledQueries atomic.Uint64 // queries that partitioned ≥1 hash-join build
	spilledBytes   atomic.Int64  // build bytes those partitioning passes routed
	peakQueryBytes atomic.Int64  // largest single-query PeakMemoryBytes
}

// SetSpillDir does nothing and is kept for callers written against the
// spill-to-disk hash join: the byte-budgeted join (Limits.MaxMemory) now
// partitions in memory and never touches the file system.
func (s *System) SetSpillDir(dir string) {}

// noteMemory rolls one finished query's memory outcome into the system's
// cumulative counters (RobustnessStats).
func (s *System) noteMemory(peak, spills, spilled int64) {
	if spills > 0 {
		s.spilledQueries.Add(1)
		s.spilledBytes.Add(spilled)
	}
	for {
		cur := s.peakQueryBytes.Load()
		if peak <= cur || s.peakQueryBytes.CompareAndSwap(cur, peak) {
			return
		}
	}
}

// New creates an empty system.
func New() *System {
	s := &System{
		store:   snapshot.NewStore(catalog.New()),
		adm:     admission.New(admission.Config{}),
		breaker: admission.NewBreaker(admission.BreakerConfig{}),
	}
	s.initCache()
	return s
}

// initCache installs the plan/estimate cache and hangs its eager
// invalidation off every snapshot publication — local mutations, replica
// replay, and post-recovery writes alike. Correctness does not depend on
// this hook: the catalog version is part of every cache key, so an entry
// can never be served against a catalog it was not planned on (see
// internal/plancache); the hook just reclaims space for retired versions
// immediately.
func (s *System) initCache() {
	s.cache = plancache.New(0)
	// The publish hook runs while the snapshot store's writer lock is
	// still held (see snapshot.SetOnPublish), so the invalidation's lock
	// acquisition is ordered under it — invisibly to static call
	// resolution, hence the declared edge.
	//
	//lockorder:edge repro/internal/snapshot.Store.mu repro/internal/plancache.Cache.mu
	s.store.SetOnPublish(func(v uint64) { s.cache.Invalidate(v) })
}

// catalogNow returns the latest published catalog for metadata accessors.
// Queries must not use it: they pin a snapshot at admission instead.
func (s *System) catalogNow() *catalog.Catalog {
	return s.store.Current().Catalog()
}

// CatalogVersion returns the currently published catalog version. Versions
// start at 1 and advance by one on every successful catalog mutation.
func (s *System) CatalogVersion() uint64 { return s.store.Version() }

// mutate routes a catalog mutation through the copy-on-write store: the
// mutation runs on a clone and publishes a new catalog version atomically,
// or publishes nothing at all if it fails. Mutations are rejected once the
// system is closed.
func (s *System) mutate(fn func(*catalog.Catalog) error) error {
	if s.adm.Closed() {
		return fmt.Errorf("%w: catalog is read-only", ErrClosed)
	}
	return s.store.Mutate(fn)
}

// DeclareStats registers a table by statistics only (no data): rows is the
// table cardinality ‖R‖ and distinct maps column names to column
// cardinalities d. Columns are integer-typed with value domain
// [0, d−1], matching the uniformity setup of the paper's examples.
// Estimation works on declared tables; execution requires loaded data.
func (s *System) DeclareStats(name string, rows float64, distinct map[string]float64) error {
	if name == "" {
		return fmt.Errorf("%w: table name required", ErrBadStats)
	}
	if rows < 0 {
		return fmt.Errorf("%w: negative cardinality %g for table %s", ErrBadStats, rows, name)
	}
	return s.mutate(func(cat *catalog.Catalog) error {
		return cat.AddTable(catalog.SimpleTable(name, rows, distinct))
	})
}

// MustDeclareStats is DeclareStats but panics on error.
func (s *System) MustDeclareStats(name string, rows float64, distinct map[string]float64) {
	if err := s.DeclareStats(name, rows, distinct); err != nil {
		panic(err)
	}
}

// LoadTable creates an integer table with the given column names, loads the
// rows, and ANALYZEs it (exact statistics, no histograms). Use
// LoadTableHist to additionally build histograms.
func (s *System) LoadTable(name string, columns []string, rows [][]int64) error {
	return s.loadTable(name, columns, rows, catalog.AnalyzeOptions{})
}

// LoadTableHist is LoadTable with equi-depth histograms of the given bucket
// budget collected per column, enabling distribution statistics for local
// predicate selectivities (Section 5).
func (s *System) LoadTableHist(name string, columns []string, rows [][]int64, buckets int) error {
	return s.loadTable(name, columns, rows, catalog.AnalyzeOptions{HistogramBuckets: buckets})
}

func (s *System) loadTable(name string, columns []string, rows [][]int64, opts catalog.AnalyzeOptions) error {
	if name == "" {
		return fmt.Errorf("%w: table name required", ErrBadStats)
	}
	if len(columns) == 0 {
		return fmt.Errorf("%w: at least one column required", ErrBadStats)
	}
	defs := make([]storage.ColumnDef, len(columns))
	for i, c := range columns {
		defs[i] = storage.ColumnDef{Name: c, Type: storage.TypeInt64}
	}
	schema, err := storage.NewSchema(defs...)
	if err != nil {
		return fmt.Errorf("%w: table %s: %w", ErrBadStats, name, err)
	}
	tbl := storage.NewTable(name, schema)
	vals := make([]storage.Value, len(columns))
	for ri, row := range rows {
		if len(row) != len(columns) {
			return fmt.Errorf("%w: row %d has %d values, want %d", ErrBadStats, ri, len(row), len(columns))
		}
		for ci, v := range row {
			vals[ci] = storage.Int64(v)
		}
		if err := tbl.AppendRow(vals...); err != nil {
			return fmt.Errorf("els: %w", err)
		}
	}
	return s.mutate(func(cat *catalog.Catalog) error {
		_, err := cat.Analyze(tbl, opts)
		return err
	})
}

// LoadCSV reads a CSV file into a new table (types inferred per column:
// int64 → float64 → string) and ANALYZEs it; histBuckets > 0 additionally
// builds equi-depth histograms. header consumes the first row as column
// names.
func (s *System) LoadCSV(name, path string, header bool, histBuckets int) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("%w: opening data file: %w", ErrBadStats, err)
	}
	defer f.Close()
	return s.loadCSVReader(name, f, header, histBuckets, path)
}

// LoadCSVReader is LoadCSV from an arbitrary reader.
func (s *System) LoadCSVReader(name string, r io.Reader, header bool, histBuckets int) error {
	return s.loadCSVReader(name, r, header, histBuckets, "")
}

func (s *System) loadCSVReader(name string, r io.Reader, header bool, histBuckets int, filename string) error {
	tbl, err := csvload.Load(name, r, csvload.Options{Header: header, Filename: filename})
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadStats, err)
	}
	return s.mutate(func(cat *catalog.Catalog) error {
		_, err := cat.Analyze(tbl, catalog.AnalyzeOptions{HistogramBuckets: histBuckets})
		return err
	})
}

// GenerateTable synthesizes and loads a table whose named column follows
// the given distribution ("uniform", "zipf", "permutation", "sequential")
// over [0, domain); theta is the Zipf skew. A uniform payload column named
// "payload" is added. The table is ANALYZEd after generation.
func (s *System) GenerateTable(name, column, dist string, rows, domain int, theta float64, seed int64) error {
	var d datagen.Distribution
	switch strings.ToLower(dist) {
	case "uniform":
		d = datagen.DistUniform
	case "zipf":
		d = datagen.DistZipf
	case "permutation":
		d = datagen.DistPermutation
		domain = rows
	case "sequential":
		d = datagen.DistSequential
	default:
		return fmt.Errorf("%w: unknown distribution %q", ErrParse, dist)
	}
	tbl, err := datagen.Generate(datagen.TableSpec{
		Name: name,
		Rows: rows,
		Columns: []datagen.ColumnSpec{
			{Name: column, Dist: d, Domain: domain, Theta: theta},
			{Name: "payload", Dist: datagen.DistUniform, Domain: 1 << 20},
		},
	}, seed)
	if err != nil {
		return fmt.Errorf("%w: %w", ErrBadStats, err)
	}
	return s.mutate(func(cat *catalog.Catalog) error {
		_, err := cat.Analyze(tbl, catalog.AnalyzeOptions{})
		return err
	})
}

// BuildIndex constructs an ordered index over a loaded table's column.
// Once any index exists, the optimizer's repertoire grows to include the
// index-nested-loops join method, which probes the index once per outer
// row instead of rescanning the inner table.
func (s *System) BuildIndex(table, column string) error {
	return s.mutate(func(cat *catalog.Catalog) error {
		if err := cat.BuildIndex(table, column); err != nil {
			return fmt.Errorf("%w: %w", ErrBadStats, err)
		}
		return nil
	})
}

// ExportStats writes the catalog's statistics as JSON (data and indexes
// are not serialized) — a portable artifact for sharing optimizer
// statistics between runs and tools. The format carries a version header
// and per-table checksums so a truncated or corrupted file is rejected at
// import time.
func (s *System) ExportStats(w io.Writer) error { return s.catalogNow().ExportJSON(w) }

// ImportStats loads statistics previously written by ExportStats,
// replacing same-named tables. The import is all-or-nothing: a truncated
// or corrupted file fails with ErrBadStats and publishes no new catalog
// version, so in-flight and subsequent queries never see a half-imported
// catalog.
func (s *System) ImportStats(r io.Reader) error {
	return s.mutate(func(cat *catalog.Catalog) error {
		return cat.ImportJSON(r)
	})
}

// Tables returns the registered table names in registration order.
func (s *System) Tables() []string { return s.catalogNow().TableNames() }

// TableCard returns the cardinality statistic of a table.
func (s *System) TableCard(name string) (float64, error) {
	ts := s.catalogNow().Table(name)
	if ts == nil {
		return 0, fmt.Errorf("%w: unknown table %q", ErrParse, name)
	}
	return ts.Card, nil
}

// TableColumns returns the column names of a registered table (sorted).
func (s *System) TableColumns(name string) ([]string, error) {
	ts := s.catalogNow().Table(name)
	if ts == nil {
		return nil, fmt.Errorf("%w: unknown table %q", ErrParse, name)
	}
	out := make([]string, 0, len(ts.Columns))
	for _, cs := range ts.Columns {
		out = append(out, cs.Name)
	}
	sort.Strings(out)
	return out, nil
}

// ColumnDistinct returns the column cardinality statistic d of a column.
func (s *System) ColumnDistinct(table, column string) (float64, error) {
	ts := s.catalogNow().Table(table)
	if ts == nil {
		return 0, fmt.Errorf("%w: unknown table %q", ErrParse, table)
	}
	cs := ts.Column(column)
	if cs == nil {
		return 0, fmt.Errorf("%w: table %q has no column %q", ErrParse, table, column)
	}
	return cs.Distinct, nil
}
