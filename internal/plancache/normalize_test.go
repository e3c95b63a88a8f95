package plancache

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/querygen"
	"repro/internal/sqlparse"
	"repro/internal/storage"
)

// bindCat is a catalog with enough tables to bind every test query.
func bindCat(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for name, cols := range map[string]map[string]float64{
		"R": {"a": 10, "b": 7},
		"S": {"a": 10, "c": 7},
	} {
		if err := cat.AddTable(catalog.SimpleTable(name, 100, cols)); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

func canon(t testing.TB, cat *catalog.Catalog, sql string) string {
	t.Helper()
	q, err := sqlparse.ParseAndBind(sql, cat)
	if err != nil {
		t.Fatalf("%q: %v", sql, err)
	}
	return Canonical(q)
}

// Formatting-only differences — whitespace, keyword/identifier case,
// conjunct order, column-column operand orientation — must collide onto
// one canonical string.
func TestCanonicalCollidesEquivalentTexts(t *testing.T) {
	cat := bindCat(t)
	base := canon(t, cat, "SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5")
	for _, sql := range []string{
		"select   count(*)  from R,S where R.a=S.a and R.b<5",
		"SELECT COUNT(*) FROM r, s WHERE r.B < 5 AND r.A = s.A",
		"SELECT COUNT(*) FROM R, S WHERE S.a = R.a AND R.b < 5",
		"\tSELECT\nCOUNT( * )\nFROM R , S\nWHERE R.b < 5 AND S.a = R.a",
	} {
		if got := canon(t, cat, sql); got != base {
			t.Errorf("%q canonicalized to\n%q\nwant\n%q", sql, got, base)
		}
	}
}

// Alias case is erased (binding is case-insensitive), but the alias NAME
// is part of the key: an aliased and an unaliased rendering of the same
// join bind to different qualified columns and stay distinct, while two
// case-variants of one alias collide.
func TestCanonicalAliasCase(t *testing.T) {
	cat := bindCat(t)
	a := canon(t, cat, "SELECT COUNT(*) FROM R AS x, S AS y WHERE x.a = y.a")
	b := canon(t, cat, "select count(*) from R as X, S as Y where X.A = Y.A")
	if a != b {
		t.Errorf("alias case variants differ:\n%q\n%q", a, b)
	}
	c := canon(t, cat, "SELECT COUNT(*) FROM R x, S y WHERE x.a = y.a")
	if a != c {
		t.Errorf("AS and bare alias forms differ:\n%q\n%q", a, c)
	}
}

// Everything that changes meaning must keep queries distinct: constants,
// operators, constant types, FROM order, select shape.
func TestCanonicalDistinguishesSemantics(t *testing.T) {
	cat := bindCat(t)
	base := canon(t, cat, "SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5")
	for _, sql := range []string{
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 6",
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b <= 5",
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < 5.0",
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a AND R.b < '5'",
		"SELECT COUNT(*) FROM S, R WHERE R.a = S.a AND R.b < 5",
		"SELECT COUNT(*) FROM R, S WHERE R.a = S.a",
		"SELECT COUNT(*) FROM R, S WHERE R.a <> S.a AND R.b < 5",
	} {
		if got := canon(t, cat, sql); got == base {
			t.Errorf("%q collided with the base query:\n%q", sql, got)
		}
	}
	// The duplicated conjunct is also distinct from the single one (the
	// sorted WHERE section keeps multiplicity).
	one := canon(t, cat, "SELECT COUNT(*) FROM R WHERE R.b < 5")
	if two := canon(t, cat, "SELECT COUNT(*) FROM R WHERE R.b < 5 AND R.b < 5"); two == one {
		t.Errorf("duplicate conjunct collided: %q", two)
	}
}

// A string constant cannot forge section separators: every component is
// length-prefixed, so a literal crafted to look like the canonical
// rendering of another query still keys separately.
func TestCanonicalInjectionResistant(t *testing.T) {
	cat := bindCat(t)
	a := canon(t, cat, "SELECT COUNT(*) FROM R WHERE R.b = 'x' AND R.a = 'y'")
	b := canon(t, cat, "SELECT COUNT(*) FROM R WHERE R.b = 'x' AND r.a = 'y'")
	if a != b {
		t.Errorf("case variant differs:\n%q\n%q", a, b)
	}
	// The injected literal embeds a full rendered predicate.
	c := canon(t, cat, `SELECT COUNT(*) FROM R WHERE R.b = 'x14:r.a = `+"\x03y'")
	if c == a {
		t.Errorf("crafted literal collided with two-predicate query: %q", c)
	}
}

// Disjunction groups collide across disjunct order and group order, and
// stay distinct from the corresponding conjunctive query.
func TestCanonicalDisjunctions(t *testing.T) {
	cat := bindCat(t)
	a := canon(t, cat, "SELECT COUNT(*) FROM R WHERE (R.b = 1 OR R.b = 2) AND (R.a = 3 OR R.a = 4)")
	b := canon(t, cat, "SELECT COUNT(*) FROM R WHERE (R.a = 4 OR R.a = 3) AND (R.b = 2 OR R.b = 1)")
	if a != b {
		t.Errorf("OR-group orderings differ:\n%q\n%q", a, b)
	}
	c := canon(t, cat, "SELECT COUNT(*) FROM R WHERE R.b = 1 AND R.a = 3")
	if c == a {
		t.Error("conjunctive query collided with disjunctive one")
	}
}

// renderVariant renders q as SQL that differs from q.SQL() only in
// formatting: shuffled conjunct order, flipped column-column operands,
// random identifier/keyword case, and random whitespace.
func renderVariant(q querygen.Query, rng *rand.Rand) string {
	sp := func() string { return strings.Repeat(" ", 1+rng.Intn(3)) }
	mangle := func(s string) string {
		b := []byte(s)
		for i, ch := range b {
			if rng.Intn(2) == 0 {
				b[i] = byte(strings.ToUpper(string(ch))[0])
			} else {
				b[i] = byte(strings.ToLower(string(ch))[0])
			}
		}
		return string(b)
	}
	var sb strings.Builder
	sb.WriteString(mangle("select") + sp() + mangle("count") + "(*)" + sp() + mangle("from") + sp())
	for i, t := range q.Tables {
		if i > 0 {
			sb.WriteString(sp() + "," + sp())
		}
		sb.WriteString(mangle(t.Table))
	}
	preds := append([]expr.Predicate(nil), q.Preds...)
	rng.Shuffle(len(preds), func(i, j int) { preds[i], preds[j] = preds[j], preds[i] })
	for i, p := range preds {
		if i == 0 {
			sb.WriteString(sp() + mangle("where") + sp())
		} else {
			sb.WriteString(sp() + mangle("and") + sp())
		}
		l, op := p.Left, p.Op
		if p.RightIsColumn && rng.Intn(2) == 0 {
			// Flip operand order; the flipped operator keeps the meaning.
			sb.WriteString(mangle(p.Right.String()) + sp() + op.Flip().String() + sp() + mangle(l.String()))
			continue
		}
		sb.WriteString(mangle(l.String()) + sp() + op.String() + sp())
		if p.RightIsColumn {
			sb.WriteString(mangle(p.Right.String()))
		} else {
			sb.WriteString(p.Const.String())
		}
	}
	return sb.String()
}

// fuzzCatalog registers statistics for every table of a generated query so
// its SQL binds.
func fuzzCatalog(q querygen.Query) (*catalog.Catalog, error) {
	cat := catalog.New()
	for _, spec := range q.Specs {
		cols := make(map[string]float64, len(spec.Columns))
		for _, c := range spec.Columns {
			cols[c.Name] = float64(c.Domain)
		}
		if err := cat.AddTable(catalog.SimpleTable(spec.Name, float64(spec.Rows), cols)); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// FuzzNormalizer drives seeded random queries through the canonicalizer:
// a formatting-only variant (whitespace, identifier case, conjunct order,
// flipped operands) must collide with the original, and a semantically
// changed variant (one constant bumped, or an extra conjunct) must not.
// Parse, bind, and Canonical must never panic along the way.
func FuzzNormalizer(f *testing.F) {
	f.Add(int64(1), int64(2))
	f.Add(int64(7), int64(11))
	f.Add(int64(42), int64(-3))
	f.Fuzz(func(t *testing.T, seed, mutSeed int64) {
		q := querygen.Generate(seed)
		cat, err := fuzzCatalog(q)
		if err != nil {
			t.Skip()
		}
		base, err := sqlparse.ParseAndBind(q.SQL(), cat)
		if err != nil {
			t.Fatalf("generated SQL failed to bind: %q: %v", q.SQL(), err)
		}
		baseKey := Canonical(base)

		rng := rand.New(rand.NewSource(mutSeed))
		for i := 0; i < 4; i++ {
			variant := renderVariant(q, rng)
			vq, err := sqlparse.ParseAndBind(variant, cat)
			if err != nil {
				t.Fatalf("formatting variant failed to bind: %q: %v", variant, err)
			}
			if got := Canonical(vq); got != baseKey {
				t.Fatalf("formatting variant changed the key:\n  base    %q -> %q\n  variant %q -> %q",
					q.SQL(), baseKey, variant, got)
			}
		}

		// Semantic change: an extra conjunct no generated query carries.
		distinct := q
		distinct.Preds = append(append([]expr.Predicate(nil), q.Preds...),
			expr.NewConst(expr.ColumnRef{Table: q.Tables[0].Table, Column: "v"},
				expr.OpNE, storage.Int64(1000003)))
		dq, err := sqlparse.ParseAndBind(distinct.SQL(), cat)
		if err != nil {
			t.Fatalf("distinct variant failed to bind: %q: %v", distinct.SQL(), err)
		}
		if Canonical(dq) == baseKey {
			t.Fatalf("semantically distinct query collided:\n  %q\n  %q", q.SQL(), distinct.SQL())
		}
	})
}

// frontEndSQL is a 5-table statement of the shape bench/'s planning
// workloads issue: a join chain, a local predicate and an OR-group.
const frontEndSQL = "SELECT COUNT(*) FROM orders o, lineitem l, customer c, nation n, region r " +
	"WHERE o.okey = l.okey AND o.ckey = c.ckey AND c.nkey = n.nkey AND n.rkey = r.rkey " +
	"AND l.qty < 25 AND (r.name = 'ASIA' OR r.name = 'EUROPE')"

func frontEndCatalog(t testing.TB) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	for name, cols := range map[string]map[string]float64{
		"orders":   {"okey": 1e5, "ckey": 1e4},
		"lineitem": {"okey": 1e5, "qty": 50},
		"customer": {"ckey": 1e4, "nkey": 25},
		"nation":   {"nkey": 25, "rkey": 5},
		"region":   {"rkey": 5, "name": 5},
	} {
		if err := cat.AddTable(catalog.SimpleTable(name, 1e5, cols)); err != nil {
			t.Fatal(err)
		}
	}
	return cat
}

var frontEndSink string

// BenchmarkFrontEnd is what a statement pays before the plan cache can be
// asked by canonical key: lex + parse + bind + Canonical. A text hit skips
// all of it; every first sight and every re-formatted variant still pays it.
func BenchmarkFrontEnd(b *testing.B) {
	cat := frontEndCatalog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := sqlparse.ParseAndBind(frontEndSQL, cat)
		if err != nil {
			b.Fatal(err)
		}
		frontEndSink = Canonical(q)
	}
}

// The rendering itself, byte for byte, with every section populated: the
// key's writer may change, the key may not.
func TestCanonicalRenderingPinned(t *testing.T) {
	got := canon(t, bindCat(t), "SELECT R.a, COUNT(*), SUM(y.c), max(b) FROM R, S AS y "+
		"WHERE y.A = R.a AND b < 5 AND (c = 1 OR c = 'x') AND (R.b >= 2.5 OR R.b = 7) GROUP BY R.a")
	const want = "s:7:a0(r.a)5:a1(*)7:a2(y.c)7:a4(r.b)\ng:3:r.a\nf:5:1:r=r5:1:y=s\nw:9:r.a = y.a8:r.b < \x015\n" +
		"o:33:8:r.b = \x01720:r.b >= \x02z1nlcsthuvi820:8:y.c = \x0118:y.c = \x03x\n"
	if got != want {
		t.Fatalf("canonical key\n%q\nwant\n%q", got, want)
	}
}
