// Package querygen generates seeded random conjunctive join queries with
// matching data specifications, for differential testing of the execution
// pipeline: every plan of a generated query, under every policy, must return
// what internal/bruteforce evaluates it to.
//
// Everything is deterministic in the seed: the table specs (datagen is
// itself seeded), the predicates, and the join-method repertoire. A failing
// seed therefore reproduces exactly.
package querygen

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/cardest"
	"repro/internal/datagen"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/storage"
)

// Query is one generated query: data specs for its tables plus the
// predicate conjunction and the join methods the optimizer may use.
type Query struct {
	// Specs describe the tables; generate each with datagen.Generate and
	// the seed of your choice (DataSeed is the conventional one).
	Specs []datagen.TableSpec
	// DataSeed is the seed to pass to datagen.Generate for each spec.
	DataSeed int64
	// Tables are the query's table references (no aliasing).
	Tables []cardest.TableRef
	// Preds is the conjunctive predicate set: an equality join chain plus
	// randomized local predicates.
	Preds []expr.Predicate
	// Methods is the non-empty join-method repertoire for the optimizer.
	Methods []optimizer.JoinMethod
}

// SQL renders the query as the COUNT(*) statement the public System API
// accepts, so generated queries can be driven through the whole serving
// stack (parse, bind, plan cache, execute) and not just the bare executor.
// Constants are int64-only by construction, so Value.String renders valid
// SQL literals.
func (q Query) SQL() string {
	var b strings.Builder
	b.WriteString("SELECT COUNT(*) FROM ")
	for i, t := range q.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.Table)
	}
	for i, p := range q.Preds {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(p.String())
	}
	return b.String()
}

// String renders a compact description for failure messages.
func (q Query) String() string {
	s := fmt.Sprintf("%d tables, methods %v, %d preds:", len(q.Specs), q.Methods, len(q.Preds))
	for _, p := range q.Preds {
		s += " [" + p.String() + "]"
	}
	return s
}

// Generate builds the query for one seed. Table sizes land in 64..320
// rows, so hash-join build sides straddle the differentials' 4 KiB byte
// budget and about half the seeds take the partition policy; join columns
// get small domains so joins actually match rows.
func Generate(seed int64) Query { return GenerateNamed(seed, "Q") }

// GenerateNamed is Generate with a caller-chosen table-name prefix, so
// several generated queries' tables can coexist in one catalog (the
// repeated-workload harness loads a whole pool of them into one System).
func GenerateNamed(seed int64, prefix string) Query {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + rng.Intn(3) // 1..3 tables

	q := Query{DataSeed: seed*7919 + 1}
	ref := func(i int) string { return fmt.Sprintf("%s%d", prefix, i) }
	for i := 0; i < n; i++ {
		rows := 64 + rng.Intn(257) // 64..320
		kDomain := 4 + rng.Intn(13)
		q.Specs = append(q.Specs, datagen.TableSpec{
			Name: ref(i),
			Rows: rows,
			Columns: []datagen.ColumnSpec{
				{Name: "k", Dist: datagen.DistUniform, Domain: kDomain},
				{Name: "v", Dist: datagen.DistUniform, Domain: 100},
			},
		})
		q.Tables = append(q.Tables, cardest.TableRef{Table: ref(i)})
		if i > 0 {
			q.Preds = append(q.Preds, expr.NewJoin(
				expr.ColumnRef{Table: ref(i - 1), Column: "k"}, expr.OpEQ,
				expr.ColumnRef{Table: ref(i), Column: "k"}))
		}
	}

	// 0–2 local predicates on random tables.
	ops := []expr.CompareOp{expr.OpLT, expr.OpLE, expr.OpGT, expr.OpGE, expr.OpEQ, expr.OpNE}
	for i, locals := 0, rng.Intn(3); i < locals; i++ {
		t := rng.Intn(n)
		q.Preds = append(q.Preds, expr.NewConst(
			expr.ColumnRef{Table: ref(t), Column: "v"},
			ops[rng.Intn(len(ops))],
			storage.Int64(int64(rng.Intn(100)))))
	}

	// Join-method repertoire: hash always; nested loops only for ≤ 2 tables
	// (its re-scanned inner is quadratic, and a 3-way NL join over ~300-row
	// tables dominates the harness's runtime); sort-merge sometimes.
	q.Methods = []optimizer.JoinMethod{optimizer.HashJoin}
	if n <= 2 && rng.Intn(2) == 0 {
		q.Methods = append(q.Methods, optimizer.NestedLoop)
	}
	if rng.Intn(2) == 0 {
		q.Methods = append(q.Methods, optimizer.SortMerge)
	}
	return q
}
