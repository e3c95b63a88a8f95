package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"time"

	els "repro"
	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/closure"
	"repro/internal/durable"
	"repro/internal/eqclass"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/governor"
	"repro/internal/optimizer"
	"repro/internal/plancache"
	"repro/internal/sqlparse"
)

// Span names. The roots are the whole public call; the rest are the layers
// the call passes through, timed from outside.
const (
	spanEstimate  = "els.estimate"
	spanQuery     = "els.query"
	spanParse     = "sqlparse.parse_bind"
	spanCanonical = "plancache.canonical"
	spanGet       = "plancache.get"
	spanPut       = "plancache.put"
	spanNewQuery  = "cardest.new_query"
	spanClosure   = "closure.compute"
	spanEqclass   = "eqclass.build"
	spanBestPlan  = "optimizer.bestplan"
	spanExecute   = "executor.execute"
	spanAggregate = "executor.aggregate"
)

// span is one timed interval of one statement's life. Spans of a statement
// share trace_id (the statement's index in the traced pass); parent names
// the span that caused this one ("" for the root).
type span struct {
	TraceID int              `json:"trace_id"`
	Span    string           `json:"span"`
	Parent  string           `json:"parent,omitempty"`
	StartNS int64            `json:"start_ns"`
	EndNS   int64            `json:"end_ns"`
	Counts  map[string]int64 `json:"counts,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// record appends one span and returns its duration.
func (t *tracer) record(id int, name, parent string, start, end time.Time, counts map[string]int64) time.Duration {
	t.spans = append(t.spans, span{
		TraceID: id, Span: name, Parent: parent,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
		Counts: counts,
	})
	return end.Sub(start)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return err
		}
	}
	return durable.AtomicWriteFile(path, buf.Bytes(), 0o644)
}

// selfTimes returns, per span name, the self time of every recorded span:
// its duration minus the durations of the spans of the same trace that name
// it as parent.
func (t *tracer) selfTimes() map[string][]time.Duration {
	type key struct {
		id   int
		name string
	}
	children := make(map[key]time.Duration)
	for _, s := range t.spans {
		if s.Parent != "" {
			children[key{s.TraceID, s.Parent}] += s.dur()
		}
	}
	out := make(map[string][]time.Duration)
	for _, s := range t.spans {
		out[s.Span] = append(out[s.Span], s.dur()-children[key{s.TraceID, s.Span}])
	}
	return out
}

// glueShare is the part of the whole System calls' time that the replayed
// stages do not account for: 1 − Σ top-level stage time ÷ Σ call time.
func (t *tracer) glueShare() float64 {
	var calls, stages time.Duration
	for _, s := range t.spans {
		if s.Span == spanEstimate || s.Span == spanQuery {
			calls += s.dur()
		}
		if s.Parent == spanEstimate || s.Parent == spanQuery {
			stages += s.dur() // a top-level stage; its children are inside it
		}
	}
	if calls == 0 {
		return 0
	}
	return 1 - float64(stages)/float64(calls)
}

// ops is the number of statements traced.
func (t *tracer) ops() int {
	ids := make(map[int]struct{})
	for _, s := range t.spans {
		ids[s.TraceID] = struct{}{}
	}
	return len(ids)
}

// count sums one named count over all spans.
func (t *tracer) count(name string) int64 {
	var n int64
	for _, s := range t.spans {
		n += s.Counts[name]
	}
	return n
}

// medianUS is the median of ds in microseconds (0 when empty).
func medianUS(ds []time.Duration) float64 {
	vals := make([]float64, len(ds))
	for i, d := range ds {
		vals[i] = float64(d.Nanoseconds()) / 1e3
	}
	return median(vals)
}

// algoConfig mirrors els.Algorithm's private estimator configuration for
// the algorithms the workloads use.
func algoConfig(a els.Algorithm) (cardest.Config, error) {
	switch a {
	case els.AlgorithmELS:
		return cardest.ELS(), nil
	case els.AlgorithmSM:
		return cardest.SM(), nil
	case els.AlgorithmSMPTC:
		return cardest.SM().WithClosure(), nil
	case els.AlgorithmSSS:
		return cardest.SSS().WithClosure(), nil
	case els.AlgorithmELSHist:
		cfg := cardest.ELS()
		cfg.Sel.HistogramJoins = true
		return cfg, nil
	}
	return cardest.Config{}, fmt.Errorf("bench: no replay configuration for algorithm %s", a)
}

// replayer re-runs one statement's pipeline stage by stage through the
// layers' public functions, the way System.planFor and System.queryOn
// chain them, recording a span per stage. It owns a catalog built from the
// same generated input as the System's and a plan cache of the same
// capacity fed the same statement sequence, so it hits and misses where
// the System does.
type replayer struct {
	ctx      context.Context
	tr       *tracer
	cat      *catalog.Catalog
	cache    *plancache.Cache
	limits   els.Limits
	spillDir string
	version  uint64 // stands in for the System's catalog version in cache keys
}

func newReplayer(ctx context.Context, tr *tracer, cat *catalog.Catalog, limits els.Limits, spillDir string) *replayer {
	return &replayer{ctx: ctx, tr: tr, cat: cat, cache: plancache.New(limits.PlanCacheSize), limits: limits, spillDir: spillDir, version: 1}
}

// bumpVersion mirrors a catalog mutation on the System: the version in the
// cache key advances and entries of retired versions are dropped.
func (r *replayer) bumpVersion(v uint64) {
	if v != r.version {
		r.version = v
		r.cache.Invalidate(v)
	}
}

// replay records the stage spans of one statement under the root span
// named parent, and reports whether the plan came from the cache. execute
// adds the executor stage (and the aggregate stage for GROUP BY
// statements).
func (r *replayer) replay(id int, parent, sql string, algo els.Algorithm, execute bool) (hit bool, err error) {
	tr := r.tr
	cfg, err := algoConfig(algo)
	if err != nil {
		return false, err
	}
	gov := governor.New(r.ctx, r.limits)

	t0 := time.Now()
	q, err := sqlparse.ParseAndBind(sql, r.cat)
	t1 := time.Now()
	if err != nil {
		return false, err
	}
	tr.record(id, spanParse, parent, t0, t1, nil)

	t0 = time.Now()
	key := plancache.Key{Query: plancache.Canonical(q), Algo: int(algo), Version: r.version}
	t1 = time.Now()
	tr.record(id, spanCanonical, parent, t0, t1, nil)

	t0 = time.Now()
	cached, hit := r.cache.Get(key)
	t1 = time.Now()
	tr.record(id, spanGet, parent, t0, t1, map[string]int64{"hit": b2i(hit)})

	var plan optimizer.Plan
	if hit {
		plan = cached.(optimizer.Plan)
	} else {
		tabs := tableRefs(q)
		t0 = time.Now()
		cest, err := cardest.NewQuery(r.cat, tabs, q.Where, q.Disjunctions, cfg)
		t1 = time.Now()
		if err != nil {
			return false, err
		}
		tr.record(id, spanNewQuery, parent, t0, t1, nil)
		// NewQuery's children cannot be timed inside it from here, so they
		// are re-executed on the same input right after it; their spans name
		// it as parent and the self-time arithmetic subtracts them.
		deduped := expr.Dedup(q.Where)
		if cfg.ApplyClosure {
			t0 = time.Now()
			res := closure.Compute(deduped)
			t1 = time.Now()
			tr.record(id, spanClosure, spanNewQuery, t0, t1, map[string]int64{"implied_preds": int64(len(res.Implied))})
			t0 = time.Now()
			eqclass.FromPredicates(deduped)
			t1 = time.Now()
			tr.record(id, spanEqclass, spanClosure, t0, t1, nil)
		} else {
			t0 = time.Now()
			eqclass.FromPredicates(deduped)
			t1 = time.Now()
			tr.record(id, spanEqclass, spanNewQuery, t0, t1, nil)
		}

		opts := repertoire(gov.MemoryEnforced())
		opts.Governor = gov
		t0 = time.Now()
		opt, err := optimizer.New(cest, opts)
		if err == nil {
			plan, err = opt.BestPlan()
		}
		t1 = time.Now()
		if err != nil {
			return false, err
		}
		tr.record(id, spanBestPlan, parent, t0, t1, map[string]int64{"tables": int64(len(q.Tables))})

		t0 = time.Now()
		r.cache.Put(key, plan)
		t1 = time.Now()
		tr.record(id, spanPut, parent, t0, t1, nil)
	}
	if !execute {
		return hit, nil
	}
	res, err := r.execute(id, parent, plan, gov)
	if err != nil {
		return false, err
	}
	if len(q.GroupBy) > 0 {
		schema := res.Table.Schema()
		groupCols := make([]int, len(q.GroupBy))
		for i, ref := range q.GroupBy {
			groupCols[i] = schema.ColumnIndex(ref.Table + "." + ref.Column)
		}
		ex := executor.NewGoverned(r.cat, gov)
		t0 = time.Now()
		_, err := ex.Aggregate(res.Table, groupCols, []executor.AggSpec{{Op: executor.AggCountStar, Name: "n"}})
		t1 = time.Now()
		if err != nil {
			return false, err
		}
		tr.record(id, spanAggregate, parent, t0, t1, nil)
	}
	return hit, nil
}

// tableRefs lists a bound query's FROM items the way the estimator takes them.
func tableRefs(q *sqlparse.Query) []cardest.TableRef {
	tabs := make([]cardest.TableRef, len(q.Tables))
	for i, item := range q.Tables {
		tabs[i] = cardest.TableRef{Alias: item.Alias, Table: item.Table}
	}
	return tabs
}

// repertoire mirrors the System's choice of join methods: the paper's
// nested loops + sort-merge, or nested loops + the spillable hash join when
// the query runs under a byte budget.
func repertoire(budgeted bool) optimizer.Options {
	opts := optimizer.PaperOptions()
	if budgeted {
		opts.Methods = []optimizer.JoinMethod{optimizer.NestedLoop, optimizer.HashJoin}
	}
	return opts
}

// execute runs plan the way System.queryOn does — governed executor, the
// System's spill directory, the estimate-informed reservation under a byte
// budget — and records the executor span with the work counters read at
// the same boundary.
func (r *replayer) execute(id int, parent string, plan optimizer.Plan, gov *governor.Governor) (*executor.Result, error) {
	ex := executor.NewGoverned(r.cat, gov)
	ex.SetSpillDir(r.spillDir)
	if gov.MemoryEnforced() {
		gov.ReserveBytes(workingBytes(plan))
	}
	t0 := time.Now()
	res, err := ex.Execute(plan)
	t1 := time.Now()
	if err != nil {
		return nil, err
	}
	spills, spilled := gov.SpillStats()
	_, peak, _ := gov.MemoryUsage()
	r.tr.record(id, spanExecute, parent, t0, t1, map[string]int64{
		"tuples": res.Stats.TuplesScanned, "comparisons": res.Stats.Comparisons,
		"rows": res.Stats.RowsProduced, "spills": spills, "spilled_bytes": spilled, "peak_bytes": peak,
	})
	return res, nil
}

// workingBytes mirrors the System's estimate-informed memory reservation:
// twice the largest hash-join build side at 16 bytes per column.
func workingBytes(plan optimizer.Plan) int64 {
	var worst float64
	var walk func(optimizer.Plan)
	walk = func(n optimizer.Plan) {
		j, ok := n.(*optimizer.Join)
		if !ok {
			return
		}
		walk(j.Left)
		walk(j.Right)
		if j.Method == optimizer.HashJoin {
			if b := j.Right.EstRows() * float64(16*j.Right.Width()); b > worst {
				worst = b
			}
		}
	}
	walk(plan)
	worst *= 2
	if worst > float64(1<<55) {
		worst = float64(1 << 55)
	}
	return int64(worst)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
