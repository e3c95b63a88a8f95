package els_test

import (
	"fmt"
	"strings"

	els "repro"
)

// The paper's Example 1b: three tables joined on a single equivalence
// class. Algorithm ELS estimates the exact 1000 rows.
func ExampleSystem_Estimate() {
	sys := els.New()
	sys.MustDeclareStats("R1", 100, map[string]float64{"x": 10})
	sys.MustDeclareStats("R2", 1000, map[string]float64{"y": 100})
	sys.MustDeclareStats("R3", 1000, map[string]float64{"z": 1000})

	est, err := sys.Estimate(
		"SELECT COUNT(*) FROM R1, R2, R3 WHERE x = y AND y = z", els.AlgorithmELS)
	if err != nil {
		panic(err)
	}
	fmt.Println(est.FinalSize)
	fmt.Println(est.ImpliedPredicates)
	// Output:
	// 1000
	// [R1.x = R3.z]
}

// Examples 2 and 3 and Section 3.3 along the join order R2, R3, R1, with
// the size after each step. After transitive closure the multiplicative
// rule (Example 2) multiplies dependent selectivities and collapses to 1
// row, the smallest-selectivity rule (Example 3) gives 100, and neither
// representative selectivity can be right; ELS's largest-selectivity rule
// gives Equation 3's 1000.
func ExampleSystem_EstimateOrder() {
	sys := els.New()
	sys.MustDeclareStats("R1", 100, map[string]float64{"x": 10})
	sys.MustDeclareStats("R2", 1000, map[string]float64{"y": 100})
	sys.MustDeclareStats("R3", 1000, map[string]float64{"z": 1000})
	sql := "SELECT COUNT(*) FROM R1, R2, R3 WHERE x = y AND y = z"

	for _, algo := range els.Algorithms() {
		est, err := sys.EstimateOrder(sql, algo, []string{"R2", "R3", "R1"})
		if err != nil {
			panic(err)
		}
		var steps []float64
		for _, s := range est.Steps {
			steps = append(steps, s.Size)
		}
		fmt.Printf("%s: %g %v\n", algo, est.FinalSize, steps)
	}
	// Output:
	// ELS: 1000 [1000 1000]
	// SM: 1000 [1000 1000]
	// SM+PTC: 1 [1000 1]
	// SSS+PTC: 100 [1000 100]
	// REP(smallest): 100 [1000 100]
	// REP(largest): 10000 [10000 10000]
	// ELS+hist: 1000 [1000 1000]
}

// Explain shows the closure ELS derives for Example 1b, the plan it picks
// and the estimate at every node.
func ExampleSystem_Explain() {
	sys := els.New()
	sys.MustDeclareStats("R1", 100, map[string]float64{"x": 10})
	sys.MustDeclareStats("R2", 1000, map[string]float64{"y": 100})
	sys.MustDeclareStats("R3", 1000, map[string]float64{"z": 1000})

	out, err := sys.Explain("SELECT COUNT(*) FROM R1, R2, R3 WHERE x = y AND y = z", els.AlgorithmELS)
	if err != nil {
		panic(err)
	}
	fmt.Print(out)
	// Output:
	// algorithm: ELS
	// catalog version: 4
	// implied by transitive closure:
	//   R1.x = R3.z
	// plan:
	// SM(R1,R3 ⋈ R2) rows=1000 cost=143.3
	//   SM(R1 ⋈ R3) rows=100 cost=72.7
	//     Scan(R1) rows=100 cost=2.0
	//     Scan(R3) rows=1000 cost=12.0
	//   Scan(R2) rows=1000 cost=12.0
	// estimated result size: 1000 (cost 143.3)
}

// Section 8 at a tenth of the paper's sizes, executed: permutation columns
// make uniformity and containment exact, so every plan counts the correct
// 10 rows, but the plans the misestimating algorithms pick scan far more
// tuples than ELS's.
func ExampleSystem_CompareAlgorithms() {
	sys := els.New()
	for i, t := range []struct {
		name, col string
		rows      int
	}{{"S", "s", 100}, {"M", "m", 1000}, {"B", "b", 5000}, {"G", "g", 10000}} {
		if err := sys.GenerateTable(t.name, t.col, "permutation", t.rows, t.rows, 0, int64(i+1)); err != nil {
			panic(err)
		}
	}
	results, err := sys.CompareAlgorithms("SELECT COUNT(*) FROM S, M, B, G WHERE s = m AND m = b AND b = g AND s < 10")
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		var steps []string
		for _, s := range r.Estimate.Steps {
			steps = append(steps, fmt.Sprintf("%.3g", s.Size))
		}
		fmt.Printf("%s %s (%s) count=%d tuples=%d\n", r.Estimate.Algorithm,
			strings.Join(r.Estimate.JoinOrder, "⋈"), strings.Join(steps, ", "), r.Count, r.TuplesScanned)
	}
	// Output:
	// ELS S⋈B⋈M⋈G (10, 10, 10) count=10 tuples=16190
	// SM S⋈M⋈B⋈G (10, 10, 10) count=10 tuples=32160
	// SM+PTC S⋈M⋈B⋈G (0.1, 4e-08, 4e-19) count=10 tuples=151130
	// SSS+PTC S⋈M⋈B⋈G (0.1, 0.0002, 2e-07) count=10 tuples=151130
}

// Loading data enables execution: the count is exact, and the result
// carries per-node estimated-vs-actual cardinalities.
func ExampleSystem_Query() {
	sys := els.New()
	if err := sys.LoadTable("A", []string{"k"}, [][]int64{{1}, {2}, {2}, {3}}); err != nil {
		panic(err)
	}
	if err := sys.LoadTable("B", []string{"k"}, [][]int64{{2}, {3}, {4}}); err != nil {
		panic(err)
	}
	res, err := sys.Query("SELECT COUNT(*) FROM A, B WHERE A.k = B.k", els.AlgorithmELS)
	if err != nil {
		panic(err)
	}
	fmt.Println(res.Count)
	// Output:
	// 3
}

// GROUP BY with aggregates over a loaded table.
func ExampleSystem_Query_groupBy() {
	sys := els.New()
	rows := [][]int64{{1, 10}, {1, 20}, {2, 5}}
	if err := sys.LoadTable("T", []string{"g", "v"}, rows); err != nil {
		panic(err)
	}
	res, err := sys.Query("SELECT g, COUNT(*), SUM(v) FROM T GROUP BY g", els.AlgorithmELS)
	if err != nil {
		panic(err)
	}
	for _, row := range res.Rows {
		fmt.Println(row[0], row[1], row[2])
	}
	// Output:
	// 1 2 30
	// 2 1 5
}

// Section 5 on a star query: a range predicate on a dimension's join
// column reduces both ‖customer‖ and d(ckey). With d′(ckey) = 5000 below
// d(cust_key) = 10000, ELS joins with selectivity 1/10000 and estimates
// the nested-domain count 10⁶ × (5000/10000) × (1000/5000). The standard
// algorithm keeps the raw 1/50000 and 1/20000 and underestimates 20×.
func ExampleSystem_Estimate_dimensionJoinColumnFold() {
	sys := els.New()
	sys.MustDeclareStats("fact", 1_000_000, map[string]float64{"cust_key": 10_000, "item_key": 5_000})
	sys.MustDeclareStats("customer", 50_000, map[string]float64{"ckey": 50_000})
	sys.MustDeclareStats("item", 20_000, map[string]float64{"ikey": 20_000})
	sql := `SELECT COUNT(*) FROM fact, customer, item
	        WHERE fact.cust_key = customer.ckey AND fact.item_key = item.ikey
	          AND customer.ckey < 5000 AND item.ikey < 1000`

	for _, algo := range []els.Algorithm{els.AlgorithmELS, els.AlgorithmSM} {
		est, err := sys.Estimate(sql, algo)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %.0f\n", algo, est.FinalSize)
	}
	// Output:
	// ELS: 100000
	// SM: 5000
}

// Section 6 on a fact table: two fact columns joined to one dimension key
// are j-equivalent, so the closure implies the fact-local predicate
// fact.cust_key = fact.item_key. ELS reduces ‖fact‖ to ⌈10⁶/50000⌉ = 20
// rows with urn-reduced d = 20 and estimates 20 × 50000 / 10000 = 100; the
// standard algorithm multiplies both dependent selectivities and gets 20.
func ExampleSystem_Estimate_jEquivalentFactColumns() {
	sys := els.New()
	sys.MustDeclareStats("fact", 1_000_000, map[string]float64{"cust_key": 50_000, "item_key": 50_000})
	sys.MustDeclareStats("customer", 50_000, map[string]float64{"ckey": 10_000})
	sql := `SELECT COUNT(*) FROM fact, customer
	        WHERE fact.cust_key = customer.ckey AND fact.item_key = customer.ckey`

	elsEst, err := sys.Estimate(sql, els.AlgorithmELS)
	if err != nil {
		panic(err)
	}
	sm, err := sys.Estimate(sql, els.AlgorithmSM)
	if err != nil {
		panic(err)
	}
	fmt.Println(elsEst.ImpliedPredicates)
	fmt.Printf("ELS: %.0f\nSM: %.0f\n", elsEst.FinalSize, sm.FinalSize)
	// Output:
	// [fact.cust_key = fact.item_key]
	// ELS: 100
	// SM: 20
}
