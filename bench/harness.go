package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// metricSpec names one metric with its unit and direction; bound is the
// share of the baseline median an end-to-end metric may worsen by.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see. BENCHMARK.json
// lists the same names, units, directions and bounds (a test checks that).
//
// The timing bounds are the widest the benchmark format allows, not the
// 10–15 % the issue asked for: the reference box is a small shared VM whose
// speed wanders by ±10–25 % over seconds to minutes (a single-threaded spin
// loop shows it as much as the workloads do), so ten 15-second runs of the
// same code spread by 5–23 % whatever statistic reduces them. A bound below
// the box's own noise would only make -compare call everything unresolved.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p95_us", "us", "lower", 0.25},
	{"qerror_p50", "ratio", "lower", 1e-6},
	{"qerror_max", "ratio", "lower", 1e-6},
}

// perLayer are the single-layer metrics of the traced pass.
var perLayer = []metricSpec{
	{Name: "failed_share", Unit: "share", Better: "lower"},
	{Name: "sqlparse.parse_bind_us", Unit: "us", Better: "lower"},
	{Name: "plancache.canonical_us", Unit: "us", Better: "lower"},
	{Name: "plancache.get_put_us", Unit: "us", Better: "lower"},
	{Name: "plancache.hit_rate", Unit: "share", Better: "higher"},
	{Name: "plancache.evictions", Unit: "count", Better: "lower"},
	{Name: "closure.compute_us", Unit: "us", Better: "lower"},
	{Name: "closure.implied_preds", Unit: "count", Better: "lower"},
	{Name: "eqclass.build_us", Unit: "us", Better: "lower"},
	{Name: "cardest.new_self_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.bestplan_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.bestplan_n4_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.bestplan_n6_us", Unit: "us", Better: "lower"},
	{Name: "optimizer.bestplan_n8_us", Unit: "us", Better: "lower"},
	{Name: "executor.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.scan_filter_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.hashjoin_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.sortmerge_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.nestedloop_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.aggregate_ms", Unit: "ms", Better: "lower"},
	{Name: "executor.tuples_per_op", Unit: "count", Better: "lower"},
	{Name: "executor.comparisons_per_op", Unit: "count", Better: "lower"},
	{Name: "executor.rows_per_s", Unit: "1/s", Better: "higher"},
	{Name: "executor.columnar_ratio", Unit: "ratio", Better: "higher"},
	{Name: "executor.par_ratio", Unit: "ratio", Better: "higher"},
	{Name: "executor.spill_ratio", Unit: "ratio", Better: "lower"},
	{Name: "executor.spill_count_per_op", Unit: "count", Better: "lower"},
	{Name: "executor.spilled_bytes_per_op", Unit: "bytes", Better: "lower"},
	{Name: "governor.peak_bytes_max", Unit: "bytes", Better: "lower"},
	{Name: "els.glue_share", Unit: "share", Better: "lower"},
	{Name: "els.alloc_kb_per_op", Unit: "KiB", Better: "lower"},
	{Name: "els.heap_inuse_mb", Unit: "MiB", Better: "lower"},
	{Name: "wire.codec_us", Unit: "us", Better: "lower"},
	{Name: "wire.frame_us", Unit: "us", Better: "lower"},
	{Name: "wire.resp_bytes_p50", Unit: "bytes", Better: "lower"},
	{Name: "wire.ping_rtt_us", Unit: "us", Better: "lower"},
	{Name: "server.dispatch_us", Unit: "us", Better: "lower"},
	{Name: "driver.overhead_us", Unit: "us", Better: "lower"},
	{Name: "admission.acquire_release_us", Unit: "us", Better: "lower"},
	{Name: "admission.wait_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shed_count", Unit: "count", Better: "lower"},
	{Name: "server.estimate_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.query_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.explain_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.declare_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "durable.log_mutation_us", Unit: "us", Better: "lower"},
	{Name: "durable.wal_bytes_per_declare", Unit: "bytes", Better: "lower"},
	{Name: "snapshot.mutate_us", Unit: "us", Better: "lower"},
	{Name: "durable.recovery_ms", Unit: "ms", Better: "lower"},
	{Name: "catalog.analyze_ms_per_100k", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// workloadSpec names a workload with the reason it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	make func(*env) workload
}

var workloads = []workloadSpec{
	{"plan_cold", "distinct 3-8 table estimates outnumber the plan cache, so closure, eqclass, cardest and the optimizer DP do all the work", newPlanCold},
	{"plan_hot", "64 statements re-issued on a Zipf schedule fit the plan cache, so an op is parse + canonical key + cache hit", newPlanHot},
	{"exec_join", "executed Section 8, hash, sort-merge, scan, aggregate and skewed statements with cached plans, so executor and storage dominate", newExecJoin},
	{"exec_spill", "the join statements of exec_join under a 1 MiB byte budget, so hash-join builds partition to disk and read back", newExecSpill},
	{"serve_mixed", "estimates, queries, explains and durable DECLAREs through database/sql over loopback, so driver, wire, server, admission and WAL work", newServeMixed},
}

// sizes are the fixed operation counts. One constant scales them all for
// -smoke; nothing else may differ between a smoke run and a real one.
type sizes struct {
	PlanCycle   int // distinct statements plan_cold cycles through (> plan cache capacity)
	PlanRepeat  int // statements per plan_cold repeat (one mix period)
	HotOps      int // issues per plan_hot repeat
	ExecScale   int // Section 8 data at 1/ExecScale of the paper's sizes
	ExecCycles  int // statement cycles per exec_* repeat
	ServeScale  int // Section 8 data per tenant at 1/ServeScale
	ServeOps    int // operations per connection per serve_mixed repeat
	SetupRounds int // least set-ups per run; setup_s is their median
	ProbeIters  int // iterations of each micro-probe
}

var fullSizes = sizes{
	PlanCycle: 3 * planPeriod, PlanRepeat: planPeriod, HotOps: 20000,
	ExecScale: 2, ExecCycles: 2, ServeScale: 10, ServeOps: 750,
	SetupRounds: 3, ProbeIters: 200,
}

// smokeSizes is roughly 1/50 of the work: same code paths, verification
// on, numbers meaningless.
var smokeSizes = sizes{
	PlanCycle: 3 * planPeriod, PlanRepeat: planBlock, HotOps: 400,
	ExecScale: 20, ExecCycles: 1, ServeScale: 100, ServeOps: 100,
	SetupRounds: 1, ProbeIters: 5,
}

// setupBudget is how long a run keeps repeating a cheap set-up (beyond
// sizes.SetupRounds, up to three times as many).
const setupBudget = 2 * time.Second

// config is one invocation's settings.
type config struct {
	seed    int64
	runs    int     // measured repeats per workload when seconds is 0
	seconds float64 // > 0: measure for this long instead of a fixed repeat count
	trace   bool
	sz      sizes
	outDir  string
	procs   int // GOMAXPROCS in force
}

// env is what a workload gets from the harness.
type env struct {
	ctx  context.Context
	cfg  config
	tmp  string // scratch directory for spill files and durable tenants
	fail failLog
}

// failLog counts failed operations and keeps the first few reasons. The
// connections of serve_mixed share one.
type failLog struct {
	//lockorder:level 70
	mu    sync.Mutex
	n     int
	first []string
}

func (f *failLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.first) < 5 {
		f.first = append(f.first, fmt.Sprintf(format, args...))
	}
}

// repeatResult is one repeat's client-side observations.
type repeatResult struct {
	lat  []float64 // µs per completed operation
	wall time.Duration
}

// workload is one benchmark workload. The harness calls setup (timed, more
// than once), then repeat until the measuring budget is spent, then — when
// tracing — tracedRepeat and layers, then teardown.
type workload interface {
	// setup generates the inputs from the seed, builds the Systems or the
	// server, and warms up.
	setup() error
	// repeat issues the workload's fixed operation count once, timing and
	// verifying every operation. Failures go to env.fail.
	repeat() repeatResult
	// tracedRepeat issues the same operations, each followed by the replay
	// of its stages into tr.
	tracedRepeat(tr *tracer) repeatResult
	// layers fills the per-layer metrics only this workload can measure.
	layers(tr *tracer, m map[string]float64)
	// qerrors returns the q-error of every statement the workload
	// executed, or nil if it executes none.
	qerrors() []float64
	// teardown runs the end-of-run verification and releases everything.
	teardown() error
}

// workloadReport is everything measured on one workload.
type workloadReport struct {
	Name      string            `json:"name"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Repeats   int               `json:"repeats"`
	Samples   int               `json:"samples"`
	EndToEnd  map[string]sample `json:"end_to_end"`
	// PerRepeat holds every measured repeat's throughput and latency
	// percentiles, in order, so a run's noise can be looked at afterwards.
	PerRepeat map[string][]float64 `json:"per_repeat"`
	PerLayer  map[string]sample    `json:"per_layer,omitempty"`
}

// runWorkload measures one workload.
func runWorkload(ctx context.Context, spec workloadSpec, cfg config) (*workloadReport, error) {
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+spec.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, cfg: cfg, tmp: tmp}
	w := spec.make(e)

	// Set-up, several times; the last one is kept. A cheap set-up is
	// repeated more often, so that its median is as steady as a dear one's.
	var setups []float64
	var setupTotal time.Duration
	for {
		runtime.GC()
		start := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", spec.Name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		setupTotal += time.Since(start)
		// setup_s is an untraced metric: a traced run sets up once.
		if cfg.trace || len(setups) >= cfg.sz.SetupRounds && (setupTotal >= setupBudget || len(setups) >= 3*cfg.sz.SetupRounds) {
			break
		}
		if err := w.teardown(); err != nil {
			return nil, fmt.Errorf("%s: teardown between set-ups: %w", spec.Name, err)
		}
		w = spec.make(e)
	}

	// Untraced measured repeats.
	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace && budget > 0 {
		budget /= 3 // leave the rest of the run to the traced pass
	}
	var (
		samples             int
		opsPerS, p50s, p95s []float64
		allocKB, heapMB     []float64
		untracedWall        time.Duration
		untracedOps         int
		before, after       runtime.MemStats
		measureStart        = time.Now()
	)
	// Time-boxed: at least two repeats, then until the budget is spent.
	// Otherwise: cfg.runs repeats.
	done := func(r int) bool {
		if budget > 0 {
			return r >= 2 && time.Since(measureStart) >= budget
		}
		return r >= cfg.runs
	}
	for r := 0; !done(r); r++ {
		runtime.GC() // every repeat starts from a collected heap
		runtime.ReadMemStats(&before)
		res := w.repeat()
		runtime.ReadMemStats(&after)
		if len(res.lat) == 0 {
			return nil, fmt.Errorf("%s: a repeat completed no operation: %v", spec.Name, e.fail.first)
		}
		samples += len(res.lat)
		s := sortedCopy(res.lat)
		opsPerS = append(opsPerS, float64(len(res.lat))/res.wall.Seconds())
		p50s = append(p50s, percentile(s, 50))
		p95s = append(p95s, percentile(s, 95))
		allocKB = append(allocKB, float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(len(res.lat)))
		heapMB = append(heapMB, float64(after.HeapInuse)/(1<<20))
		untracedWall += res.wall
		untracedOps += len(res.lat)
	}

	rep := &workloadReport{Name: spec.Name, Repeats: len(opsPerS), Samples: samples, EndToEnd: map[string]sample{}}
	rep.EndToEnd["setup_s"] = medianSample(setups, "s")
	rep.PerRepeat = map[string][]float64{"ops_per_s": opsPerS, "latency_p50_us": p50s, "latency_p95_us": p95s}
	// Every figure is a median over repeats — for the latencies, of the
	// per-repeat percentiles — so a burst of noise that spoils a few
	// repeats does not move it.
	rep.EndToEnd["ops_per_s"] = medianSample(opsPerS, "1/s")
	rep.EndToEnd["latency_p50_us"] = medianSample(p50s, "us")
	rep.EndToEnd["latency_p95_us"] = medianSample(p95s, "us")
	// A workload that executes nothing has no estimate to be wrong about:
	// it reports the identity, 1.
	qe := sortedCopy(w.qerrors())
	qp50, qmax := 1.0, 1.0
	if len(qe) > 0 {
		qp50, qmax = median(qe), qe[len(qe)-1]
	}
	rep.EndToEnd["qerror_p50"] = sample{Value: qp50, Unit: "ratio", Q1: qp50, Q3: qp50, N: len(qe)}
	rep.EndToEnd["qerror_max"] = sample{Value: qmax, Unit: "ratio", Q1: qmax, Q3: qmax, N: len(qe)}

	// Traced pass.
	var tr *tracer
	layers := make(map[string]float64, len(perLayer))
	if cfg.trace {
		tr = newTracer()
		res := w.tracedRepeat(tr)
		if len(res.lat) > 0 {
			traced := res.wall.Seconds() / float64(len(res.lat))
			untraced := untracedWall.Seconds() / float64(untracedOps)
			layers["trace.overhead_share"] = traced/untraced - 1
		}
		untracedOps += len(res.lat)
	}

	// teardown verifies what can only be checked at the end (recovery).
	if err := w.teardown(); err != nil {
		return nil, fmt.Errorf("%s: teardown: %w", spec.Name, err)
	}
	rep.Attempted = untracedOps + e.fail.n
	rep.Failed = e.fail.n
	rep.Failures = e.fail.first

	if cfg.trace {
		stageMetrics(tr, layers)
		layers["els.alloc_kb_per_op"] = median(allocKB)
		layers["els.heap_inuse_mb"] = median(heapMB)
		layers["failed_share"] = float64(rep.Failed) / float64(rep.Attempted)
		w.layers(tr, layers)
		if err := tr.write(filepath.Join(cfg.outDir, "trace-"+spec.Name+".jsonl")); err != nil {
			return nil, err
		}
		rep.PerLayer = make(map[string]sample, len(perLayer))
		for _, m := range perLayer {
			rep.PerLayer[m.Name] = sample{Value: layers[m.Name], Unit: m.Unit}
		}
	}
	return rep, nil
}

// stageMetrics reduces the replayed stage spans to the per-layer metrics
// every workload shares: medians of self times, and counts.
func stageMetrics(tr *tracer, m map[string]float64) {
	self := tr.selfTimes()
	m["sqlparse.parse_bind_us"] = medianUS(self[spanParse])
	m["plancache.canonical_us"] = medianUS(self[spanCanonical])
	m["closure.compute_us"] = medianUS(self[spanClosure])
	m["eqclass.build_us"] = medianUS(self[spanEqclass])
	m["cardest.new_self_us"] = medianUS(self[spanNewQuery])
	m["optimizer.bestplan_us"] = medianUS(self[spanBestPlan])
	m["executor.execute_ms"] = medianUS(self[spanExecute]) / 1e3
	m["executor.aggregate_ms"] = medianUS(self[spanAggregate]) / 1e3
	m["els.glue_share"] = tr.glueShare()

	// Get and Put belong to one operation: pair them by statement.
	getPut := make(map[int]time.Duration)
	bySize := make(map[int64][]time.Duration)
	var busy time.Duration
	var peak int64
	for _, s := range tr.spans {
		peak = max(peak, s.Counts["peak_bytes"])
		switch s.Span {
		case spanGet, spanPut:
			getPut[s.TraceID] += s.dur()
		case spanBestPlan:
			bySize[s.Counts["tables"]] = append(bySize[s.Counts["tables"]], s.dur())
		case spanExecute:
			busy += s.dur()
		}
	}
	pairs := make([]time.Duration, 0, len(getPut))
	for _, d := range getPut {
		pairs = append(pairs, d)
	}
	m["plancache.get_put_us"] = medianUS(pairs)
	m["optimizer.bestplan_n4_us"] = medianUS(bySize[4])
	m["optimizer.bestplan_n6_us"] = medianUS(bySize[6])
	m["optimizer.bestplan_n8_us"] = medianUS(bySize[8])
	if ops := float64(tr.ops()); ops > 0 {
		m["closure.implied_preds"] = float64(tr.count("implied_preds")) / ops
		m["executor.tuples_per_op"] = float64(tr.count("tuples")) / ops
		m["executor.comparisons_per_op"] = float64(tr.count("comparisons")) / ops
		m["executor.spill_count_per_op"] = float64(tr.count("spills")) / ops
		m["executor.spilled_bytes_per_op"] = float64(tr.count("spilled_bytes")) / ops
	}
	if busy > 0 {
		m["executor.rows_per_s"] = float64(tr.count("tuples")) / busy.Seconds()
	}
	m["governor.peak_bytes_max"] = float64(peak)
}

// timedLoop issues n operations back to back (closed loop, one client),
// timing each. op reports whether the operation completed and verified; a
// failed operation contributes no latency sample.
func timedLoop(n int, op func(i int) bool) repeatResult {
	lat := make([]float64, 0, n)
	start := time.Now()
	prev := start
	for i := 0; i < n; i++ {
		ok := op(i)
		now := time.Now()
		if ok {
			lat = append(lat, float64(now.Sub(prev).Nanoseconds())/1e3)
		}
		prev = now
	}
	return repeatResult{lat: lat, wall: time.Since(start)}
}
