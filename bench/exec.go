package main

import (
	"context"
	"os"
	"path/filepath"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/executor"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/sqlparse"
)

// Byte budgets. roomyBudget is never reached: it only switches the join
// repertoire to nested loops + hash join, as any byte budget does.
// tightBudget makes the larger hash-join builds partition to disk.
const (
	roomyBudget = 1 << 40
	tightBudget = 1 << 20
)

// execProbeIters is how often the executor probes of the traced pass run
// each plan; the statements take up to 150 ms, so a few must do.
const execProbeIters = 3

// execWorkload is exec_join and exec_spill: in-process System.Query with
// one worker over Section 8 data plus a skewed table.
//
// Each Limits configuration gets a System of its own, never SetLimits on a
// warm one: the plan-cache key is (query, algorithm, catalog version) and
// ignores MaxMemory, so a sort-merge plan cached under default limits would
// be served after SetLimits(MaxMemory) and fail with ErrMemory instead of
// being re-planned with the spillable hash join (see README, "Findings").
type execWorkload struct {
	e     *env
	spill bool

	data  dataset
	stmts []execStmt
	sql   []string
	ref   []int64 // reference result count per statement, from plain maps
	qerr  []float64

	// One System and, when tracing, one replayer per Limits configuration
	// (see limitsOf); exec_join uses paper and roomy, exec_spill roomy (as
	// the in-memory reference) and tight.
	systems   [numBudgets]*els.System
	replayers [numBudgets]*replayer

	// exec_spill: what the same statement did in memory, for the equality check.
	inMemory []*els.Result

	spillDir     string
	analyze      time.Duration
	analyzedRows int
	base         [numBudgets]els.CacheStats
	cat          *catalog.Catalog
}

// The Limits configurations of the exec workloads.
const (
	paper = iota // default limits: nested loops + sort-merge, the paper's repertoire
	roomy        // byte budget nothing reaches: nested loops + hash join
	tight        // 1 MiB budget: hash-join builds spill
	numBudgets
)

func limitsOf(budget int) els.Limits {
	return [numBudgets]els.Limits{
		paper: {Workers: 1},
		roomy: {Workers: 1, MaxMemory: roomyBudget},
		tight: {Workers: 1, MaxMemory: tightBudget},
	}[budget]
}

func newExecJoin(e *env) workload  { return &execWorkload{e: e} }
func newExecSpill(e *env) workload { return &execWorkload{e: e, spill: true} }

func (w *execWorkload) newSystem(budget int) error {
	sys := els.New()
	sys.SetLimits(limitsOf(budget))
	sys.SetSpillDir(w.spillDir)
	analyze, rows, err := w.data.load(sys)
	w.analyze += analyze
	w.analyzedRows += rows
	w.systems[budget] = sys
	return err
}

func (w *execWorkload) setup() error {
	cfg := w.e.cfg
	w.spillDir = filepath.Join(w.e.tmp, "spill")
	if err := os.MkdirAll(w.spillDir, 0o755); err != nil {
		return err
	}
	w.data = dataset{Data: execData(cfg.seed, cfg.sz.ExecScale, true)}
	for _, s := range execStatements(cfg.sz.ExecScale) {
		if w.spill && !s.join() {
			continue
		}
		w.stmts = append(w.stmts, s)
		w.sql = append(w.sql, s.sql(&w.data))
		w.ref = append(w.ref, s.reference(&w.data))
	}
	other := paper
	if w.spill {
		other = tight
	}
	for _, budget := range []int{roomy, other} {
		if err := w.newSystem(budget); err != nil {
			return err
		}
	}
	if w.spill {
		w.inMemory = make([]*els.Result, len(w.stmts))
		for i, s := range w.stmts {
			var err error
			if w.inMemory[i], err = w.systems[roomy].Query(w.sql[i], s.Algo); err != nil {
				return err
			}
		}
	}
	// q-error of the ELS estimate against the true count, per join statement.
	w.qerr = w.qerr[:0]
	for i, s := range w.stmts {
		if !s.join() {
			continue
		}
		est, err := w.systems[w.budget(i)].Estimate(w.sql[i], els.AlgorithmELS)
		if err != nil {
			return err
		}
		w.qerr = append(w.qerr, qerror(est.FinalSize, float64(w.ref[i])))
	}
	// Warm-up: one cycle, after which every plan is cached.
	for i := range w.stmts {
		w.issue(i)
	}
	for budget, sys := range w.systems {
		if sys != nil {
			w.base[budget] = sys.CacheStats()
		}
	}
	return nil
}

// budget returns the Limits configuration statement i runs under.
func (w *execWorkload) budget(i int) int {
	switch {
	case w.spill:
		return tight
	case w.stmts[i].Budgeted:
		return roomy
	}
	return paper
}

// issue executes statement i and verifies the result against the
// generator's reference (and, under the tight budget, against the same
// statement's in-memory execution).
func (w *execWorkload) issue(i int) bool {
	s := w.stmts[i]
	res, err := w.systems[w.budget(i)].Query(w.sql[i], s.Algo)
	if err != nil {
		w.e.fail.add("%s: %v", s.Name, err)
		return false
	}
	if res.Count != w.ref[i] {
		w.e.fail.add("%s: counted %d, reference %d", s.Name, res.Count, w.ref[i])
		return false
	}
	if s.Kind == kindProject {
		if want := min(w.ref[i], els.MaxRows); int64(len(res.Rows)) != want {
			w.e.fail.add("%s: %d rows returned, want %d", s.Name, len(res.Rows), want)
			return false
		}
	}
	if w.spill {
		mem := w.inMemory[i]
		if res.TuplesScanned != mem.TuplesScanned || res.Comparisons != mem.Comparisons {
			w.e.fail.add("%s: spilled run scanned %d tuples / %d comparisons, in-memory run %d / %d",
				s.Name, res.TuplesScanned, res.Comparisons, mem.TuplesScanned, mem.Comparisons)
			return false
		}
	}
	return true
}

func (w *execWorkload) repeat() repeatResult {
	n := len(w.stmts)
	return timedLoop(n*w.e.cfg.sz.ExecCycles, func(k int) bool { return w.issue(k % n) })
}

func (w *execWorkload) tracedRepeat(tr *tracer) repeatResult {
	var err error
	if w.cat, err = w.data.catalog(); err != nil {
		w.e.fail.add("building the replay catalog: %v", err)
		return repeatResult{}
	}
	warm := newTracer()
	for budget := range w.replayers {
		w.replayers[budget] = newReplayer(w.e.ctx, warm, w.cat, limitsOf(budget), w.spillDir)
	}
	for i, s := range w.stmts { // plans resident, as in the Systems
		if _, err := w.replayers[w.budget(i)].replay(i, spanQuery, w.sql[i], s.Algo, false); err != nil {
			w.e.fail.add("replay warm-up %s: %v", s.Name, err)
		}
	}
	for _, rp := range w.replayers {
		rp.tr = tr
	}
	n := len(w.stmts)
	return timedLoop(n*w.e.cfg.sz.ExecCycles, func(k int) bool {
		i := k % n
		t0 := time.Now()
		ok := w.issue(i)
		tr.record(k, spanQuery, "", t0, time.Now(), nil)
		if _, err := w.replayers[w.budget(i)].replay(k, spanQuery, w.sql[i], w.stmts[i].Algo, true); err != nil {
			w.e.fail.add("replay %s: %v", w.stmts[i].Name, err)
			return false
		}
		return ok
	})
}

func (w *execWorkload) layers(tr *tracer, m map[string]float64) {
	var hits, misses, evictions uint64
	for budget, sys := range w.systems {
		if sys == nil || (w.spill && budget == roomy) { // roomy only serves as exec_spill's reference
			continue
		}
		st := sys.CacheStats()
		hits += st.Hits - w.base[budget].Hits
		misses += st.Misses - w.base[budget].Misses
		evictions += st.Evictions - w.base[budget].Evictions
	}
	if hits+misses > 0 {
		m["plancache.hit_rate"] = float64(hits) / float64(hits+misses)
		m["plancache.evictions"] = float64(evictions) / float64(hits+misses)
	}
	if w.analyzedRows > 0 {
		m["catalog.analyze_ms_per_100k"] = w.analyze.Seconds() * 1e3 / float64(w.analyzedRows) * 1e5
	}
	if w.cat == nil {
		return
	}
	one := limitsOf(paper)
	if w.spill {
		// The same plans under the tight and the roomy budget.
		var spilling, inMemory time.Duration
		for i, s := range w.stmts {
			plan, err := planWith(w.cat, w.sql[i], s.Algo, nil, true)
			if err != nil {
				w.e.fail.add("probe plan %s: %v", s.Name, err)
				return
			}
			spilling += w.timeExecute(plan, limitsOf(tight))
			inMemory += w.timeExecute(plan, limitsOf(roomy))
		}
		m["executor.spill_ratio"] = ratio(spilling, inMemory)
		return
	}

	// One join method at a time, on plans restricted through Options.Methods.
	sqlOf := func(name string) string {
		for i, s := range w.stmts {
			if s.Name == name {
				return w.sql[i]
			}
		}
		return ""
	}
	nl := execStmt{Tables: []string{"S", "M"}}
	for _, p := range []struct {
		metric, sql string
		methods     []optimizer.JoinMethod
	}{
		{"executor.scan_filter_ms", sqlOf("scan_g"), nil},
		{"executor.hashjoin_ms", sqlOf("hash_bg"), []optimizer.JoinMethod{optimizer.HashJoin}},
		{"executor.sortmerge_ms", sqlOf("hash_bg"), []optimizer.JoinMethod{optimizer.SortMerge}},
		{"executor.nestedloop_ms", nl.sql(&w.data), []optimizer.JoinMethod{optimizer.NestedLoop}},
	} {
		plan, err := planWith(w.cat, p.sql, els.AlgorithmELS, p.methods, false)
		if err != nil {
			w.e.fail.add("probe plan for %s: %v", p.metric, err)
			return
		}
		m[p.metric] = w.timeExecute(plan, one).Seconds() * 1e3
	}

	// Row engine against columnar engine, and one worker against all, on
	// the cycle's own plans.
	var row, col, serial, parallel time.Duration
	for i, s := range w.stmts {
		plan, err := planWith(w.cat, w.sql[i], s.Algo, nil, s.Budgeted)
		if err != nil {
			w.e.fail.add("probe plan %s: %v", s.Name, err)
			return
		}
		c := w.timeExecute(plan, one)
		col += c
		row += w.timeExecute(plan, els.Limits{Workers: 1, DisableColumnar: true})
		if s.Budgeted {
			serial += c
			parallel += w.timeExecute(plan, els.Limits{Workers: w.e.cfg.procs})
		}
	}
	m["executor.columnar_ratio"] = ratio(row, col)
	m["executor.par_ratio"] = ratio(serial, parallel)
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// planWith plans sql outside any System. methods nil selects the
// repertoire a System would use: the paper's, or nested loops + hash join
// when budgeted.
func planWith(cat *catalog.Catalog, sql string, algo els.Algorithm, methods []optimizer.JoinMethod, budgeted bool) (optimizer.Plan, error) {
	cfg, err := algoConfig(algo)
	if err != nil {
		return nil, err
	}
	q, err := sqlparse.ParseAndBind(sql, cat)
	if err != nil {
		return nil, err
	}
	cest, err := cardest.NewQuery(cat, tableRefs(q), q.Where, q.Disjunctions, cfg)
	if err != nil {
		return nil, err
	}
	opts := repertoire(budgeted)
	if methods != nil {
		opts.Methods = methods
	}
	opts.Workers = 1
	opt, err := optimizer.New(cest, opts)
	if err != nil {
		return nil, err
	}
	return opt.BestPlan()
}

// timeExecute is the median wall time of executing plan under limits.
func (w *execWorkload) timeExecute(plan optimizer.Plan, limits els.Limits) time.Duration {
	times := make([]float64, 0, execProbeIters)
	for i := 0; i < execProbeIters; i++ {
		gov := governor.New(w.e.ctx, limits)
		ex := executor.NewGoverned(w.cat, gov)
		ex.SetSpillDir(w.spillDir)
		if gov.MemoryEnforced() {
			gov.ReserveBytes(workingBytes(plan))
		}
		start := time.Now()
		if _, err := ex.Execute(plan); err != nil {
			w.e.fail.add("probe execute: %v", err)
			return 0
		}
		times = append(times, float64(time.Since(start)))
	}
	return time.Duration(median(times))
}

func (w *execWorkload) qerrors() []float64 { return w.qerr }

func (w *execWorkload) teardown() error {
	ctx, cancel := context.WithTimeout(w.e.ctx, 10*time.Second)
	defer cancel()
	for _, sys := range w.systems {
		if sys == nil {
			continue
		}
		if err := sys.Close(ctx); err != nil {
			return err
		}
	}
	// Every query removes its own spill runs; one left behind is a failure.
	left, err := os.ReadDir(w.spillDir)
	if err != nil {
		return err
	}
	if len(left) > 0 {
		w.e.fail.add("%d entries left in the spill directory, first %s", len(left), left[0].Name())
	}
	return os.RemoveAll(w.spillDir)
}
