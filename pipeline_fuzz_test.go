package els

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomWorkload builds a random schema, loads random data, and composes a
// random conjunctive query (chain or star joins, optional range predicate,
// optional OR-group, optional GROUP BY) against it.
type randomWorkload struct {
	sys    *System
	sql    string
	hasAgg bool
}

func buildRandomWorkload(t *testing.T, rng *rand.Rand) randomWorkload {
	t.Helper()
	sys := New()
	n := 1 + rng.Intn(3)
	domain := 5 + rng.Intn(20)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("W%d", i)
		rows := make([][]int64, 15+rng.Intn(80))
		for r := range rows {
			rows[r] = []int64{int64(rng.Intn(domain)), int64(rng.Intn(50))}
		}
		if err := sys.LoadTable(names[i], []string{"k", "v"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	from := names[0]
	where := ""
	star := rng.Intn(2) == 0
	for i := 1; i < n; i++ {
		from += ", " + names[i]
		anchor := names[0]
		if !star {
			anchor = names[i-1]
		}
		if where != "" {
			where += " AND "
		}
		where += fmt.Sprintf("%s.k = %s.k", names[i], anchor)
	}
	if rng.Intn(2) == 0 {
		if where != "" {
			where += " AND "
		}
		where += fmt.Sprintf("%s.v < %d", names[rng.Intn(n)], rng.Intn(60))
	}
	if rng.Intn(3) == 0 {
		victim := names[rng.Intn(n)]
		if where != "" {
			where += " AND "
		}
		where += fmt.Sprintf("(%s.v = %d OR %s.v = %d)", victim, rng.Intn(50), victim, rng.Intn(50))
	}
	hasAgg := false
	sel := "COUNT(*)"
	groupBy := ""
	if rng.Intn(3) == 0 {
		hasAgg = true
		g := names[rng.Intn(n)]
		sel = fmt.Sprintf("%s.k, COUNT(*), SUM(%s.v)", g, names[0])
		groupBy = fmt.Sprintf(" GROUP BY %s.k", g)
	}
	sql := "SELECT " + sel + " FROM " + from
	if where != "" {
		sql += " WHERE " + where
	}
	sql += groupBy
	return randomWorkload{sys: sys, sql: sql, hasAgg: hasAgg}
}

// The whole pipeline under fuzz: every estimation algorithm must plan and
// execute every random query to the same result, estimates must be finite
// and non-negative, and EXPLAIN ANALYZE roots must match the pre-aggregation
// output.
func TestPipelineFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	for trial := 0; trial < 40; trial++ {
		w := buildRandomWorkload(t, rng)
		var baseline int64 = -1
		for _, algo := range []Algorithm{AlgorithmELS, AlgorithmSM, AlgorithmSMPTC, AlgorithmSSS, AlgorithmELSHist} {
			res, err := w.sys.Query(w.sql, algo)
			if err != nil {
				t.Fatalf("trial %d algo %s sql %q: %v", trial, algo, w.sql, err)
			}
			if baseline < 0 {
				baseline = res.Count
			} else if res.Count != baseline {
				t.Fatalf("trial %d: %s counted %d, baseline %d (sql %q)",
					trial, algo, res.Count, baseline, w.sql)
			}
			est := res.Estimate.FinalSize
			if est < 0 || math.IsNaN(est) || math.IsInf(est, 0) {
				t.Fatalf("trial %d: bad estimate %g (sql %q)", trial, est, w.sql)
			}
			if len(res.Nodes) == 0 {
				t.Fatalf("trial %d: missing node stats", trial)
			}
			if !w.hasAgg && res.Nodes[0].ActualRows != res.Count {
				t.Fatalf("trial %d: root actual %d != count %d", trial, res.Nodes[0].ActualRows, res.Count)
			}
			if w.hasAgg && res.Count > 0 && len(res.Rows) == 0 {
				t.Fatalf("trial %d: aggregate produced no rows (count %d)", trial, res.Count)
			}
		}
	}
}

// Estimation-only fuzz over declared statistics: estimates never crash and
// LS stays order-independent.
func TestEstimateFuzzDeclaredStats(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		sys := New()
		n := 2 + rng.Intn(3)
		names := make([]string, n)
		from := ""
		where := ""
		for i := 0; i < n; i++ {
			names[i] = fmt.Sprintf("S%d", i)
			card := float64(1 + rng.Intn(100000))
			d := float64(1 + rng.Intn(int(card)))
			sys.MustDeclareStats(names[i], card, map[string]float64{"k": d})
			if i > 0 {
				from += ", "
				if where != "" {
					where += " AND "
				}
				where += fmt.Sprintf("%s.k = %s.k", names[i], names[i-1])
			}
			from += names[i]
		}
		sql := "SELECT COUNT(*) FROM " + from + " WHERE " + where
		ref := -1.0
		for rep := 0; rep < 3; rep++ {
			order := make([]string, n)
			for i, p := range rng.Perm(n) {
				order[i] = names[p]
			}
			est, err := sys.EstimateOrder(sql, AlgorithmELS, order)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			if ref < 0 {
				ref = est.FinalSize
			} else if math.Abs(est.FinalSize-ref) > 1e-6*math.Max(1, ref) {
				t.Fatalf("trial %d: ELS order-dependent: %g vs %g", trial, est.FinalSize, ref)
			}
		}
	}
}
