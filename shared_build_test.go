package els_test

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"strings"
	"testing"

	els "repro"
)

// section8System loads the Section 8 tables at half the paper's sizes (S
// 500, M 5,000, B 25,000 and G 50,000 rows) into a System under the byte
// budget maxMemory. Each table is (joincol, payload), both permutations of
// 0..n-1, so "col < k" keeps exactly k rows of either column.
func section8System(t *testing.T, maxMemory int64) *els.System {
	t.Helper()
	sys := els.New()
	sys.SetLimits(els.Limits{MaxMemory: maxMemory})
	rng := rand.New(rand.NewPCG(8, 42))
	for _, tbl := range []struct {
		name, col string
		rows      int
	}{{"S", "s", 500}, {"M", "m", 5000}, {"B", "b", 25000}, {"G", "g", 50000}} {
		join, payload := rng.Perm(tbl.rows), rng.Perm(tbl.rows)
		rows := make([][]int64, tbl.rows)
		for i := range rows {
			rows[i] = []int64{int64(join[i]), int64(payload[i])}
		}
		if err := sys.LoadTable(tbl.name, []string{tbl.col, "payload"}, rows); err != nil {
			t.Fatal(err)
		}
	}
	return sys
}

// The statements of the benchmark's exec workloads, on section8System's
// tables.
const (
	// sec8SM is the paper's Section 8 query, planned with SM's estimates.
	sec8SM = "SELECT COUNT(*) FROM S, M, B, G WHERE S.s = M.m AND M.m = B.b AND B.b = G.g AND S.s < 50"
	// hashMBG filters M's payload and joins it to the unfiltered B and G.
	hashMBG = "SELECT COUNT(*) FROM M, B, G WHERE M.m = B.b AND B.b = G.g AND M.payload < 2500"
	// hashBG filters B's payload and joins it to the unfiltered G.
	hashBG = "SELECT COUNT(*) FROM B, G WHERE B.b = G.g AND B.payload < 12500"
)

// queryBytes runs sql once to warm the plan cache and the base columns'
// shared builds, then returns the least bytes one of ten more runs
// allocated (under the race detector sync.Pool drops a random share of what
// is put back) and the last run's result.
func queryBytes(t *testing.T, sys *els.System, sql string, algo els.Algorithm) (uint64, *els.Result) {
	t.Helper()
	if _, err := sys.Query(sql, algo); err != nil {
		t.Fatal(err)
	}
	least := uint64(math.MaxUint64)
	var res *els.Result
	for range 10 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var err error
		if res, err = sys.Query(sql, algo); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least, res
}

// hashBuilds returns the inner table of every hash join in an Explain
// report's plan, outermost join first: the X of each "HASH(... ⋈ X)".
func hashBuilds(t *testing.T, sys *els.System, sql string, algo els.Algorithm) []string {
	t.Helper()
	report, err := sys.Explain(sql, algo)
	if err != nil {
		t.Fatal(err)
	}
	var builds []string
	for _, line := range strings.Split(report, "\n") {
		if _, join, ok := strings.Cut(line, "HASH("); ok {
			_, inner, _ := strings.Cut(join, " ⋈ ")
			inner, _, _ = strings.Cut(inner, ")")
			builds = append(builds, inner)
		}
	}
	return builds
}

// Under a 1 MiB byte budget, the badly estimated Section 8 query (SM) joins
// by hash. Every table it joins to the filtered S is unfiltered and fits
// the budget, so each hash join builds on the base column's shared table
// and probes it with the few rows S lets through: warm, the query allocates
// under 64 KiB and partitions nothing. Building on the filtered side, as
// the plan did while a shared build was priced like any other, allocated
// about 930 KB per query.
func TestSection8BuildsOnSharedColumns(t *testing.T) {
	sys := section8System(t, 1<<20)
	if builds := hashBuilds(t, sys, sec8SM, els.AlgorithmSM); len(builds) != 3 || strings.Contains(strings.Join(builds, ""), "S") {
		t.Fatalf("hash builds %v, want the three unfiltered tables", builds)
	}
	bytes, res := queryBytes(t, sys, sec8SM, els.AlgorithmSM)
	t.Logf("%d bytes per warm query, count %d", bytes, res.Count)
	if res.Count != 50 || res.SpillCount != 0 {
		t.Fatalf("count %d with %d partitioning passes, want 50 with none", res.Count, res.SpillCount)
	}
	if bytes >= 64<<10 {
		t.Errorf("a warm Section 8 query under SM allocated %d bytes, want under 64 KiB", bytes)
	}
}

// EXPLAIN shows the orientation that runs: the filtered M probes B's shared
// build, and the join of the two probes G's, with or without a budget both
// tables fit.
func TestExplainShowsSharedBuildSides(t *testing.T) {
	for _, budget := range []int64{1 << 20, 1 << 40} {
		sys := section8System(t, budget)
		if builds := hashBuilds(t, sys, hashMBG, els.AlgorithmELS); fmt.Sprint(builds) != "[G B]" {
			t.Errorf("budget %d: hash builds %v, want [G B]", budget, builds)
		}
	}
}

// A table bigger than the byte budget would partition, and a partition's
// build is the join's own, so its build is priced as any other: under a
// budget G's 800,000 bytes exceed, the filtered B stays the build and G
// probes it. Under 1 MiB, G fits and is the build; under 700 KiB nothing
// partitions; under 512 KiB the join partitions, routing only B's 12,500
// keys (100,000 bytes), never G's view. One System runs the three budgets
// in turn, so a plan cached under one budget is not served under another.
func TestBudgetSmallerThanTableKeepsFilteredBuild(t *testing.T) {
	sys := section8System(t, 0)
	for _, c := range []struct {
		budget  int64
		build   string
		spilled int64
	}{{1 << 20, "G", 0}, {700 << 10, "B", 0}, {512 << 10, "B", 100000}} {
		sys.SetLimits(els.Limits{MaxMemory: c.budget})
		if builds := hashBuilds(t, sys, hashBG, els.AlgorithmELS); fmt.Sprint(builds) != "["+c.build+"]" {
			t.Errorf("budget %d: hash builds %v, want [%s]", c.budget, builds, c.build)
		}
		res, err := sys.Query(hashBG, els.AlgorithmELS)
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != 12500 || res.SpilledBytes != c.spilled {
			t.Errorf("budget %d: count %d with %d build bytes partitioned, want 12500 with %d", c.budget, res.Count, res.SpilledBytes, c.spilled)
		}
	}
}
