package experiment

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/cardest"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/executor"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/selest"
	"repro/internal/storage"
)

// qerr is the standard q-error: max(est/true, true/est), 1 = perfect.
// Zero-valued sides are floored to keep the metric finite.
func qerr(est, truth float64) float64 {
	const floor = 1e-12
	if est < floor {
		est = floor
	}
	if truth < floor {
		truth = floor
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}

// equation3 is the paper's Equation 3 over declared statistics, the size
// Rule LS must reproduce: the product of the table cardinalities, divided
// in each equivalence class by every column cardinality but the smallest.
// classes[i] holds class i's column cardinalities, one per table.
func equation3(cards []float64, classes [][]float64) float64 {
	size := 1.0
	for _, c := range cards {
		size *= c
	}
	for _, class := range classes {
		ds := slices.Clone(class)
		slices.Sort(ds)
		for _, d := range ds[1:] {
			size /= d
		}
	}
	return size
}

// --- A1: error propagation with chain length -------------------------------

// ChainLengthRow reports the geometric-mean q-error of each rule at one
// chain length, against Equation 3 over the declared statistics.
type ChainLengthRow struct {
	// N is the number of tables in the chain.
	N int
	// QErrM, QErrSS, QErrLS are geometric-mean q-errors of rules M, SS, LS.
	QErrM, QErrSS, QErrLS float64
}

// RunChainLengthSweep measures how the estimation error of the three rules
// propagates as the join chain grows (the phenomenon studied analytically
// by Ioannidis & Christodoulakis, the paper's reference [4]). Rule LS stays
// at q-error 1 by the paper's theorem; M and SS diverge geometrically.
func RunChainLengthSweep(maxN, trials int, seed int64) ([]ChainLengthRow, error) {
	if maxN < 2 {
		return nil, fmt.Errorf("experiment: maxN must be >= 2, got %d", maxN)
	}
	if trials <= 0 {
		trials = 20
	}
	rng := rand.New(rand.NewSource(seed))
	var rows []ChainLengthRow
	for n := 2; n <= maxN; n++ {
		sums := map[cardest.Rule]float64{}
		for trial := 0; trial < trials; trial++ {
			cat := catalog.New()
			tabs := make([]cardest.TableRef, n)
			var preds []expr.Predicate
			order := make([]string, n)
			cards, ds := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("T%d", i)
				cards[i] = float64(100 + rng.Intn(100000))
				ds[i] = float64(1 + rng.Intn(int(cards[i])))
				cat.MustAddTable(catalog.SimpleTable(name, cards[i], map[string]float64{"c": ds[i]}))
				tabs[i] = cardest.TableRef{Table: name}
				order[i] = name
				if i > 0 {
					preds = append(preds, expr.NewJoin(
						expr.ColumnRef{Table: name, Column: "c"}, expr.OpEQ,
						expr.ColumnRef{Table: fmt.Sprintf("T%d", i-1), Column: "c"}))
				}
			}
			// Shuffle the estimation order (Equation 3 is order-free).
			rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
			truth := equation3(cards, [][]float64{ds})
			for rule, cfg := range map[cardest.Rule]cardest.Config{
				cardest.RuleM:  cardest.SM().WithClosure(),
				cardest.RuleSS: cardest.SSS().WithClosure(),
				cardest.RuleLS: cardest.ELS(),
			} {
				est, err := cardest.New(cat, tabs, preds, cfg)
				if err != nil {
					return nil, err
				}
				got, err := est.FinalSize(order)
				if err != nil {
					return nil, err
				}
				sums[rule] += math.Log(qerr(got, truth))
			}
		}
		gm := func(r cardest.Rule) float64 { return math.Exp(sums[r] / float64(trials)) }
		rows = append(rows, ChainLengthRow{N: n, QErrM: gm(cardest.RuleM), QErrSS: gm(cardest.RuleSS), QErrLS: gm(cardest.RuleLS)})
	}
	return rows, nil
}

// FormatChainLengthSweep renders the A1 table.
func FormatChainLengthSweep(rows []ChainLengthRow) string {
	var b strings.Builder
	b.WriteString("A1: geometric-mean q-error vs Equation 3 oracle by chain length\n")
	fmt.Fprintf(&b, "%4s %16s %16s %16s\n", "n", "Rule M", "Rule SS", "Rule LS")
	for _, r := range rows {
		fmt.Fprintf(&b, "%4d %16.4g %16.4g %16.4g\n", r.N, r.QErrM, r.QErrSS, r.QErrLS)
	}
	return b.String()
}

// --- A2: Zipf skew ----------------------------------------------------------

// ZipfRow reports estimate vs executed truth for one skew setting.
type ZipfRow struct {
	// Theta is the Zipf skew parameter (0 = uniform).
	Theta float64
	// TrueSize is the executed join size.
	TrueSize float64
	// Estimate is the ELS estimate (which assumes uniform join columns).
	Estimate float64
	// QError is the q-error of the estimate.
	QError float64
	// HistEstimate is the estimate with histogram-based join selectivity
	// (the uniformity-relaxation extension); HistQError its q-error.
	HistEstimate, HistQError float64
}

// RunZipfSweep quantifies how the uniformity assumption degrades under
// Zipf-distributed join columns — the relaxation the paper's Section 9
// names as future work. Two tables of the given sizes are joined on a
// single column drawn Zipf(theta) over the same domain.
func RunZipfSweep(rows1, rows2, domain int, thetas []float64, seed int64) ([]ZipfRow, error) {
	if rows1 <= 0 || rows2 <= 0 || domain <= 0 {
		return nil, fmt.Errorf("experiment: table sizes and domain must be positive")
	}
	var out []ZipfRow
	for i, theta := range thetas {
		cat := catalog.New()
		for j, rows := range []int{rows1, rows2} {
			tbl, err := datagen.Generate(datagen.TableSpec{
				Name: fmt.Sprintf("Z%d", j),
				Rows: rows,
				Columns: []datagen.ColumnSpec{
					{Name: "k", Dist: datagen.DistZipf, Domain: domain, Theta: theta},
				},
			}, seed+int64(i*2+j))
			if err != nil {
				return nil, err
			}
			if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{HistogramBuckets: 48}); err != nil {
				return nil, err
			}
		}
		preds := []expr.Predicate{expr.NewJoin(
			expr.ColumnRef{Table: "Z0", Column: "k"}, expr.OpEQ,
			expr.ColumnRef{Table: "Z1", Column: "k"})}
		tabs := []cardest.TableRef{{Table: "Z0"}, {Table: "Z1"}}
		est, err := cardest.New(cat, tabs, preds, cardest.ELS())
		if err != nil {
			return nil, err
		}
		estimate, err := est.FinalSize([]string{"Z0", "Z1"})
		if err != nil {
			return nil, err
		}
		histCfg := cardest.ELS()
		histCfg.Sel.HistogramJoins = true
		histEst, err := cardest.New(cat, tabs, preds, histCfg)
		if err != nil {
			return nil, err
		}
		histEstimate, err := histEst.FinalSize([]string{"Z0", "Z1"})
		if err != nil {
			return nil, err
		}
		opt, err := optimizer.New(est, optimizer.PaperOptions())
		if err != nil {
			return nil, err
		}
		plan, err := opt.BestPlan()
		if err != nil {
			return nil, err
		}
		count, _, err := executor.New(cat).Count(plan)
		if err != nil {
			return nil, err
		}
		out = append(out, ZipfRow{
			Theta: theta, TrueSize: float64(count),
			Estimate: estimate, QError: qerr(estimate, float64(count)),
			HistEstimate: histEstimate, HistQError: qerr(histEstimate, float64(count)),
		})
	}
	return out, nil
}

// FormatZipfSweep renders the A2 table.
func FormatZipfSweep(rows []ZipfRow) string {
	var b strings.Builder
	b.WriteString("A2: uniformity assumption under Zipf skew (2-way join)\n")
	fmt.Fprintf(&b, "%8s %14s %14s %10s %16s %12s\n",
		"theta", "true size", "ELS estimate", "q-error", "ELS+hist est", "q-error")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f %14.0f %14.1f %10.3f %16.1f %12.3f\n",
			r.Theta, r.TrueSize, r.Estimate, r.QError, r.HistEstimate, r.HistQError)
	}
	return b.String()
}

// --- A3: urn vs linear distinct reduction -----------------------------------

// UrnRow compares the two distinct-reduction rules against measured truth
// for one selection fraction.
type UrnRow struct {
	// KeepFraction is the fraction of rows the selection retains.
	KeepFraction float64
	// TrueDistinct is the measured distinct count among surviving rows.
	TrueDistinct float64
	// UrnEstimate and LinearEstimate are the two model predictions.
	UrnEstimate, LinearEstimate float64
	// UrnQError and LinearQError are the corresponding q-errors.
	UrnQError, LinearQError float64
}

// RunUrnVsLinear generates a table with an independent selection column and
// a value column of the given distinct count, applies selections of varying
// strength, and compares the urn-model prediction of the surviving distinct
// count (Section 5) with the linear d·(k/n) rule.
func RunUrnVsLinear(rows, distinct int, fractions []float64, seed int64) ([]UrnRow, error) {
	if rows <= 0 || distinct <= 0 || distinct > rows {
		return nil, fmt.Errorf("experiment: need 0 < distinct <= rows")
	}
	tbl, err := datagen.Generate(datagen.TableSpec{
		Name: "U",
		Rows: rows,
		Columns: []datagen.ColumnSpec{
			{Name: "x", Dist: datagen.DistUniform, Domain: distinct},
			{Name: "sel", Dist: datagen.DistUniform, Domain: rows},
		},
	}, seed)
	if err != nil {
		return nil, err
	}
	var out []UrnRow
	for _, frac := range fractions {
		cut := int64(float64(rows) * frac)
		kept := 0
		seen := make(map[int64]struct{})
		for r := 0; r < tbl.NumRows(); r++ {
			if tbl.Value(r, 1).Int() < cut {
				kept++
				seen[tbl.Value(r, 0).Int()] = struct{}{}
			}
		}
		truth := float64(len(seen))
		urn := selest.ReduceDistinct(float64(distinct), float64(rows), float64(kept))
		lin := math.Ceil(selest.LinearDistinct(float64(distinct), float64(rows), float64(kept)))
		out = append(out, UrnRow{
			KeepFraction: frac, TrueDistinct: truth,
			UrnEstimate: urn, LinearEstimate: lin,
			UrnQError: qerr(urn, truth), LinearQError: qerr(lin, truth),
		})
	}
	return out, nil
}

// FormatUrnVsLinear renders the A3 table.
func FormatUrnVsLinear(rows []UrnRow) string {
	var b strings.Builder
	b.WriteString("A3: surviving distinct values — urn model vs linear rule\n")
	fmt.Fprintf(&b, "%8s %14s %12s %12s %10s %10s\n", "keep", "true distinct", "urn", "linear", "q(urn)", "q(linear)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f %14.0f %12.0f %12.0f %10.3f %10.3f\n",
			r.KeepFraction, r.TrueDistinct, r.UrnEstimate, r.LinearEstimate, r.UrnQError, r.LinearQError)
	}
	return b.String()
}

// --- A4/A5: random query sweep ----------------------------------------------

// RandomQueryRow aggregates estimation and plan quality for one algorithm
// over a batch of random queries.
type RandomQueryRow struct {
	// Algorithm is the configuration name (SM, SM+PTC, SSS, ELS).
	Algorithm string
	// GeoMeanQError is the geometric mean q-error of the final-size
	// estimate vs the executed true size.
	GeoMeanQError float64
	// MaxQError is the worst q-error observed.
	MaxQError float64
	// MeanWorkRatio is the mean of (plan's executed tuple visits) /
	// (best plan's executed tuple visits) — 1.0 means always optimal.
	MeanWorkRatio float64
}

// randomQuery builds a random chain or star query over generated data.
func randomQuery(rng *rand.Rand, cat *catalog.Catalog) ([]cardest.TableRef, []expr.Predicate, []string, error) {
	n := 2 + rng.Intn(2)
	star := rng.Intn(2) == 0
	var tabs []cardest.TableRef
	var preds []expr.Predicate
	var names []string
	// Keep join columns reasonably selective so random plans stay cheap to
	// execute: a tiny domain would turn every join into a near cross
	// product.
	domain := 10 + rng.Intn(40)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("Q%d", i)
		rows := 20 + rng.Intn(120)
		tbl, err := datagen.Generate(datagen.TableSpec{
			Name: name,
			Rows: rows,
			Columns: []datagen.ColumnSpec{
				{Name: "k", Dist: datagen.DistUniform, Domain: domain},
				{Name: "v", Dist: datagen.DistUniform, Domain: 100},
			},
		}, rng.Int63())
		if err != nil {
			return nil, nil, nil, err
		}
		if _, err := cat.Analyze(tbl, catalog.AnalyzeOptions{}); err != nil {
			return nil, nil, nil, err
		}
		tabs = append(tabs, cardest.TableRef{Table: name})
		names = append(names, name)
		if i > 0 {
			anchor := "Q0"
			if !star {
				anchor = fmt.Sprintf("Q%d", i-1)
			}
			preds = append(preds, expr.NewJoin(
				expr.ColumnRef{Table: name, Column: "k"}, expr.OpEQ,
				expr.ColumnRef{Table: anchor, Column: "k"}))
		}
	}
	// A local predicate on a random table's v column half the time.
	if rng.Intn(2) == 0 {
		victim := names[rng.Intn(n)]
		preds = append(preds, expr.NewConst(
			expr.ColumnRef{Table: victim, Column: "v"}, expr.OpLT, storage.Int64(int64(rng.Intn(100)))))
	}
	return tabs, preds, names, nil
}

// RunRandomQueries executes the A4/A5 sweep: random chain/star queries are
// planned under each algorithm, the chosen plans are executed, and both the
// estimation q-error and the realized plan work (relative to the best of
// the four plans) are aggregated.
func RunRandomQueries(queries int, seed int64) ([]RandomQueryRow, error) {
	if queries <= 0 {
		queries = 20
	}
	rng := rand.New(rand.NewSource(seed))
	cfgs := []cardest.Config{
		cardest.SM(),
		cardest.SM().WithClosure(),
		cardest.SSS().WithClosure(),
		cardest.ELS(),
	}
	labels := []string{"SM", "SM+PTC", "SSS+PTC", "ELS"}
	logQ := make([]float64, len(cfgs))
	maxQ := make([]float64, len(cfgs))
	workRatio := make([]float64, len(cfgs))
	for i := range maxQ {
		maxQ[i] = 1
	}
	for q := 0; q < queries; q++ {
		cat := catalog.New()
		tabs, preds, _, err := randomQuery(rng, cat)
		if err != nil {
			return nil, err
		}
		exec := executor.New(cat)
		work := make([]float64, len(cfgs))
		truth := -1.0
		ests := make([]float64, len(cfgs))
		for i, cfg := range cfgs {
			est, err := cardest.New(cat, tabs, preds, cfg)
			if err != nil {
				return nil, err
			}
			opt, err := optimizer.New(est, optimizer.PaperOptions())
			if err != nil {
				return nil, err
			}
			plan, err := opt.BestPlan()
			if err != nil {
				return nil, err
			}
			count, stats, err := exec.Count(plan)
			if err != nil {
				return nil, err
			}
			if truth < 0 {
				truth = float64(count)
			} else if truth != float64(count) {
				return nil, fmt.Errorf("experiment: plans disagree on the result (%g vs %d)", truth, count)
			}
			ests[i] = plan.EstRows()
			work[i] = float64(stats.TuplesScanned)
		}
		best := math.Inf(1)
		for _, w := range work {
			if w < best {
				best = w
			}
		}
		if best <= 0 {
			best = 1
		}
		for i := range cfgs {
			qe := qerr(ests[i], truth)
			logQ[i] += math.Log(qe)
			if qe > maxQ[i] {
				maxQ[i] = qe
			}
			workRatio[i] += work[i] / best
		}
	}
	out := make([]RandomQueryRow, len(cfgs))
	for i := range cfgs {
		out[i] = RandomQueryRow{
			Algorithm:     labels[i],
			GeoMeanQError: math.Exp(logQ[i] / float64(queries)),
			MaxQError:     maxQ[i],
			MeanWorkRatio: workRatio[i] / float64(queries),
		}
	}
	return out, nil
}

// FormatRandomQueries renders the A4/A5 table.
func FormatRandomQueries(rows []RandomQueryRow) string {
	var b strings.Builder
	b.WriteString("A4/A5: random chain+star queries — estimation error and plan quality\n")
	fmt.Fprintf(&b, "%-10s %16s %14s %16s\n", "Algorithm", "geo-mean q-err", "max q-err", "mean work ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %16.4g %14.4g %16.3f\n", r.Algorithm, r.GeoMeanQError, r.MaxQError, r.MeanWorkRatio)
	}
	return b.String()
}
